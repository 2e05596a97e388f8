#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/json.hpp"

namespace sim {

const char* cat_name(Cat c) noexcept {
  switch (c) {
    case Cat::kCompute: return "compute";
    case Cat::kComm: return "comm";
    case Cat::kSync: return "sync";
    case Cat::kHostApi: return "host_api";
    case Cat::kKernel: return "kernel";
    case Cat::kOther: return "other";
  }
  return "?";
}

void Trace::record(Cat cat, std::int32_t device, std::int32_t lane, Nanos begin,
                   Nanos end, std::string name) {
  if (!enabled_ || end <= begin) return;
  if (checked_) {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) {
      owner_ = self;
    } else if (owner_ != self) {
      throw std::logic_error(
          "sim::Trace is thread-confined: recorded from two threads; give "
          "each worker its own Machine/Engine (see sweep::Executor)");
    }
  }
  intervals_.push_back(Interval{cat, device, lane, begin, end, std::move(name)});
}

std::vector<Interval> Trace::take_intervals() {
  std::vector<Interval> out;
  out.swap(intervals_);
  owner_ = std::thread::id{};
  return out;
}

void Trace::append(std::vector<Interval> more) {
  if (intervals_.empty()) {
    intervals_ = std::move(more);
    return;
  }
  std::move(more.begin(), more.end(), std::back_inserter(intervals_));
}

std::vector<std::pair<Nanos, Nanos>> Trace::merged(Cat cat,
                                                   std::int32_t device) const {
  std::vector<std::pair<Nanos, Nanos>> spans;
  for (const Interval& iv : intervals_) {
    if (iv.cat != cat) continue;
    if (device != -2 && iv.device != device) continue;
    spans.emplace_back(iv.begin, iv.end);
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<Nanos, Nanos>> out;
  for (const auto& s : spans) {
    if (!out.empty() && s.first <= out.back().second) {
      out.back().second = std::max(out.back().second, s.second);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

Nanos Trace::union_length(Cat cat, std::int32_t device) const {
  Nanos total = 0;
  for (const auto& [b, e] : merged(cat, device)) total += e - b;
  return total;
}

std::vector<std::pair<Nanos, Nanos>> Trace::merged_any(
    std::initializer_list<Cat> cats, std::int32_t device) const {
  std::vector<std::pair<Nanos, Nanos>> spans;
  for (const Interval& iv : intervals_) {
    bool match = false;
    for (Cat c : cats) {
      if (iv.cat == c) {
        match = true;
        break;
      }
    }
    if (!match) continue;
    if (device != -2 && iv.device != device) continue;
    spans.emplace_back(iv.begin, iv.end);
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<Nanos, Nanos>> out;
  for (const auto& sp : spans) {
    if (!out.empty() && sp.first <= out.back().second) {
      out.back().second = std::max(out.back().second, sp.second);
    } else {
      out.push_back(sp);
    }
  }
  return out;
}

Nanos Trace::union_length_any(std::initializer_list<Cat> cats,
                              std::int32_t device) const {
  Nanos total = 0;
  for (const auto& [b, e] : merged_any(cats, device)) total += e - b;
  return total;
}

Nanos Trace::overlap_length(Cat a, Cat b, std::int32_t device) const {
  const auto ua = merged(a, device);
  const auto ub = merged(b, device);
  Nanos total = 0;
  std::size_t i = 0, j = 0;
  while (i < ua.size() && j < ub.size()) {
    const Nanos lo = std::max(ua[i].first, ub[j].first);
    const Nanos hi = std::min(ua[i].second, ub[j].second);
    if (lo < hi) total += hi - lo;
    if (ua[i].second < ub[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

double Trace::overlap_ratio(Cat a, Cat b, std::int32_t device) const {
  const Nanos len = union_length(a, device);
  if (len == 0) return 0.0;
  return static_cast<double>(overlap_length(a, b, device)) /
         static_cast<double>(len);
}

std::string Trace::to_chrome_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Interval& iv : intervals_) {
    if (!first) os << ",";
    first = false;
    std::string name;
    append_json_string(name, iv.name.empty() ? cat_name(iv.cat) : iv.name);
    os << "\n  {\"name\": " << name << ", \"cat\": \"" << cat_name(iv.cat)
       << "\", \"ph\": \"X\""
       << ", \"ts\": " << to_usec(iv.begin)
       << ", \"dur\": " << to_usec(iv.end - iv.begin)
       << ", \"pid\": " << (iv.device < 0 ? 999 : iv.device)
       << ", \"tid\": " << iv.lane << "}";
  }
  os << "\n]\n";
  return os.str();
}

std::string Trace::summary(Nanos total) const {
  // Collect the device ids present.
  std::vector<std::int32_t> devices;
  for (const Interval& iv : intervals_) {
    if (std::find(devices.begin(), devices.end(), iv.device) == devices.end()) {
      devices.push_back(iv.device);
    }
  }
  std::sort(devices.begin(), devices.end());
  std::ostringstream os;
  os << "activity over " << to_usec(total) << " us:\n";
  auto pct = [total](Nanos v) {
    return total > 0 ? 100.0 * static_cast<double>(v) / static_cast<double>(total)
                     : 0.0;
  };
  char buf[160];
  for (std::int32_t d : devices) {
    const Nanos comp = union_length(Cat::kCompute, d);
    const Nanos comm = union_length(Cat::kComm, d);
    const Nanos sync = union_length(Cat::kSync, d);
    const Nanos host = union_length(Cat::kHostApi, d);
    if (d < 0) {
      std::snprintf(buf, sizeof(buf),
                    "  host : api %9.2f us (%5.1f%%)  sync %9.2f us (%5.1f%%)\n",
                    to_usec(host), pct(host), to_usec(sync), pct(sync));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  gpu %2d: compute %9.2f us (%5.1f%%)  comm %9.2f us "
                    "(%5.1f%%)  sync %9.2f us (%5.1f%%)\n",
                    d, to_usec(comp), pct(comp), to_usec(comm), pct(comm),
                    to_usec(sync), pct(sync));
    }
    os << buf;
  }
  return os.str();
}

}  // namespace sim
