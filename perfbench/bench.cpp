#include "bench.hpp"

#include <algorithm>
#include <cstdio>

#include "sweep/json.hpp"

namespace perfbench {

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

CountingObserver::Counts& CountingObserver::Counts::operator+=(
    const Counts& o) {
  kernel_groups += o.kernel_groups;
  stream_ops += o.stream_ops;
  puts += o.puts;
  signal_updates += o.signal_updates;
  signal_waits += o.signal_waits;
  barrier_arrivals += o.barrier_arrivals;
  link_admissions += o.link_admissions;
  contended_admissions += o.contended_admissions;
  accesses += o.accesses;
  events += o.events;
  return *this;
}

namespace {
/// The innermost open span on this thread (-1: none).
thread_local int t_current = -1;
}  // namespace

Tracer::Scope::Scope(Tracer* t, std::string name, std::int64_t op)
    : Scope(t, std::move(name), op, t_current) {}

Tracer::Scope::Scope(Tracer* t, std::string name, std::int64_t op, int parent)
    : t_(t), prev_(t_current) {
  if (t_ == nullptr) return;
  id_ = t_->open(std::move(name), op, parent);
  t_current = id_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->close(id_);
  t_current = prev_;
}

int Tracer::open(std::string name, std::int64_t op, int parent) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::total_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) us += s.end_us - s.start_us;
  }
  return us / 1e3;
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::vector<Span> all = spans();
  // Children of one span may run in parallel (sweep workers), so a span's
  // covered time is the union of its children's intervals, not their sum.
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                 s.end_us);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::vector<std::pair<double, double>>& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double reach = all[i].start_us;
    for (const auto& [lo, hi] : c) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    out[all[i].name] += (all[i].end_us - all[i].start_us - covered) / 1e3;
  }
  return out;
}

std::string Tracer::to_json() const {
  sweep::JsonWriter w;
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (const Span& s : spans()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("start_us");
    w.value(s.start_us);
    w.key("end_us");
    w.value(s.end_us);
    w.key("parent");
    w.value(s.parent);
    w.key("op");
    w.value(s.op);
    w.end_object();
  }
  w.end_array();
  w.key("self_ms");
  w.begin_object();
  for (const auto& [name, ms] : self_ms()) {
    w.key(name);
    w.value(ms);
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

}  // namespace perfbench
