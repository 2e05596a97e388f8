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
                   Nanos end, std::string_view name, std::string_view suffix) {
  if (!enabled_ || end <= begin) return;
  const std::thread::id self = std::this_thread::get_id();
  if (owner_ == std::thread::id{}) {
    owner_ = self;
  } else if (owner_ != self) {
    throw std::logic_error(
        "sim::Trace is thread-confined: recorded from two threads; give "
        "each worker its own Machine/Engine (see sweep::Executor)");
  }
  Spans& u = unions_[static_cast<std::size_t>(cat)];
  if (!u.empty() && end < u.back().second) {
    throw std::logic_error(
        std::string("sim::Trace: a ") + cat_name(cat) + " interval ending at " +
        std::to_string(end) + " ns was recorded after one ending at " +
        std::to_string(u.back().second) +
        " ns; intervals must end at the engine's current time");
  }
  // Every span the new one touches ends at or after `begin`, and they are
  // the trailing ones, since the list is sorted and disjoint.
  Nanos lo = begin;
  while (!u.empty() && u.back().second >= begin) {
    lo = std::min(lo, u.back().first);
    u.pop_back();
  }
  u.emplace_back(lo, end);
  if (keep_) {
    std::string label(name);
    label += suffix;
    intervals_.push_back(
        Interval{cat, device, lane, begin, end, std::move(label)});
  }
}

void Trace::clear() {
  intervals_.clear();
  for (Spans& u : unions_) u.clear();
  owner_ = std::thread::id{};
}

const std::vector<Interval>& Trace::intervals() const {
  if (!keep_) {
    throw std::logic_error(
        "sim::Trace stores intervals only after keep_intervals(): call it "
        "before the run to read intervals, a Chrome trace, the summary or a "
        "per-device union");
  }
  return intervals_;
}

void merge_spans(Spans& spans) {
  std::sort(spans.begin(), spans.end());
  std::size_t n = 0;
  for (const auto& s : spans) {
    if (n > 0 && s.first <= spans[n - 1].second) {
      spans[n - 1].second = std::max(spans[n - 1].second, s.second);
    } else {
      spans[n++] = s;
    }
  }
  spans.resize(n);
}

Nanos spans_length(const Spans& merged) {
  Nanos total = 0;
  for (const auto& [b, e] : merged) total += e - b;
  return total;
}

Nanos spans_overlap(const Spans& a, const Spans& b) {
  Nanos total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Nanos lo = std::max(a[i].first, b[j].first);
    const Nanos hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

Spans Trace::merged(std::initializer_list<Cat> cats,
                    std::int32_t device) const {
  Spans spans;
  if (device == -2) {
    for (const Cat c : cats) {
      spans.insert(spans.end(), merged(c).begin(), merged(c).end());
    }
  } else {
    for (const Interval& iv : intervals()) {
      if (iv.device != device) continue;
      if (std::find(cats.begin(), cats.end(), iv.cat) == cats.end()) continue;
      spans.emplace_back(iv.begin, iv.end);
    }
  }
  merge_spans(spans);
  return spans;
}

Nanos Trace::union_length(Cat cat, std::int32_t device) const {
  return device == -2 ? spans_length(merged(cat))
                      : spans_length(merged({cat}, device));
}

Nanos Trace::union_length_any(std::initializer_list<Cat> cats,
                              std::int32_t device) const {
  return spans_length(merged(cats, device));
}

Nanos Trace::overlap_length(Cat a, Cat b, std::int32_t device) const {
  return device == -2
             ? spans_overlap(merged(a), merged(b))
             : spans_overlap(merged({a}, device), merged({b}, device));
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
  for (const Interval& iv : intervals()) {
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
  for (const Interval& iv : intervals()) {
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
