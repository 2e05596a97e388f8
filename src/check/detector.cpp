#include "check/detector.hpp"

#include <sstream>

namespace check {

Tid Detector::tid(const sim::Actor& actor) {
  auto it = tids_.find(actor);
  if (it != tids_.end()) return it->second;
  const Tid t = static_cast<Tid>(clocks_.size());
  tids_.emplace(actor, t);
  clocks_.emplace_back();
  clocks_.back().tick(t);  // epochs start at 1; 0 stays "never"
  return t;
}

std::string Detector::actor_desc(const sim::Actor& actor) const {
  std::string s = actor.str();
  auto it = actor_names_.find(actor);
  if (it != actor_names_.end() && !it->second.empty()) {
    s += "(" + it->second + ")";
  }
  if (job_map_ != nullptr) s += job_map_->suffix(actor);
  return s;
}

std::string Detector::range_desc(const sim::MemRange& range) const {
  std::string s;
  auto it = mem_.find(range.base);
  if (it != mem_.end()) {
    s = it->second.name;
  } else {
    std::ostringstream os;
    os << "<mem@0x" << std::hex << range.base << ">";
    s = os.str();
  }
  s += " bytes [" + std::to_string(range.lo) + ", " + std::to_string(range.hi) +
       ")";
  if (range.strided()) {
    s += " stride " + std::to_string(range.stride) + " x" +
         std::to_string(range.count);
  }
  return s;
}

std::string Detector::report_text() const {
  std::string out = verdict_name(verdict());
  for (const RaceReport& r : races_) out += "\n  " + r.str();
  if (suppressed_races_ > 0) {
    out += "\n  (+" + std::to_string(suppressed_races_) +
           " further race report(s) suppressed)";
  }
  if (deadlocked_) {
    out += "\n  ";
    // Indent the analyzer's multi-line diagnosis under the verdict.
    for (const char c : deadlock_report_) {
      out += c;
      if (c == '\n') out += "  ";
    }
  }
  // Contended links only (exclusive FIFO lanes always report concurrent 1).
  for (const auto& [name, s] : link_stats_) {
    if (s.max_concurrent <= 1) continue;
    out += "\n  link " + name + ": " + std::to_string(s.flights) +
           " flight(s), peak sharing " + std::to_string(s.max_concurrent) +
           ", queued " + std::to_string(s.queued_ns) + " ns";
  }
  return out;
}

void Detector::check_range(const sim::Actor& actor, const VectorClock& clock,
                           Epoch e, const sim::MemRange& range, bool is_write,
                           std::string_view what) {
  if (range.empty()) return;
  AccessInfo cur{e, actor_desc(actor), std::string(what)};
  AccessTable& table = shadow_[range.base];
  auto on_race = [&](const AccessInfo& prior, bool prior_is_write) {
    const auto key = std::make_tuple(range.base, e.tid, prior.epoch.tid,
                                     is_write, prior_is_write);
    if (!race_keys_.insert(key).second) return;
    if (races_.size() >= kMaxRaces) {
      ++suppressed_races_;
      return;
    }
    races_.push_back(RaceReport{range_desc(range), cur.actor, cur.what,
                                is_write, prior.actor, prior.what,
                                prior_is_write});
  };
  if (range.strided()) {
    // Element-accurate: a strided access touches `count` elements `stride`
    // bytes apart, NOT the whole bounding box — interleaved columns of the
    // same array are disjoint and must not be reported against each other.
    for (std::size_t i = 0; i < range.count; ++i) {
      const std::size_t at = range.lo + i * range.stride;
      table.access(at, at + range.elem, is_write, cur, clock, on_race);
    }
    return;
  }
  table.access(range.lo, range.hi, is_write, cur, clock, on_race);
}

// --- naming ------------------------------------------------------------------

void Detector::on_mem_block(const void* base, std::size_t bytes,
                            std::string_view name) {
  mem_[reinterpret_cast<std::uintptr_t>(base)] =
      MemBlock{std::string(name), bytes};
}

void Detector::on_flag_name(const void* flag, std::string_view name) {
  deadlock_.name_flag(flag, name);
}

void Detector::on_mem_release(const void* base) {
  // A freed block, flag or barrier: whatever is allocated at this address
  // next must not inherit its accesses, clock, barrier generations or
  // reported race pairs.
  const auto key = reinterpret_cast<std::uintptr_t>(base);
  mem_.erase(key);
  shadow_.erase(key);
  race_keys_.erase(race_keys_.lower_bound({key, 0, 0, false, false}),
                   race_keys_.lower_bound({key + 1, 0, 0, false, false}));
  flag_clock_.erase(base);
  barriers_.erase(base);
  deadlock_.forget(base);
}

// --- actor lifecycle ---------------------------------------------------------

// NOTE: both tids must be resolved BEFORE taking vc() references — tid() can
// grow clocks_ and invalidate references into it.

void Detector::on_actor_begin(const sim::Actor& actor, const sim::Actor& parent,
                              std::string_view name) {
  const Tid child = tid(actor);
  if (!name.empty()) actor_names_[actor] = std::string(name);
  if (parent.valid()) {
    const Tid p = tid(parent);
    vc(child).join(vc(p));
  }
}

void Detector::on_actor_end(const sim::Actor& actor, const sim::Actor& parent) {
  const Tid child = tid(actor);
  if (parent.valid()) {
    const Tid p = tid(parent);
    vc(p).join(vc(child));
  }
  // The same group identity is reused by the next launch; make its epochs
  // distinguishable from this incarnation's.
  vc(child).tick(child);
}

// --- stream FIFO -------------------------------------------------------------

void Detector::on_stream_enqueue(const sim::Actor& enqueuer,
                                 const sim::Actor& stream,
                                 std::int64_t ticket) {
  const Tid e = tid(enqueuer);
  pending_ops_[{stream, ticket}] = vc(e);
  vc(e).tick(e);
}

void Detector::on_stream_op_begin(const sim::Actor& stream,
                                  std::int64_t ticket) {
  auto it = pending_ops_.find({stream, ticket});
  if (it == pending_ops_.end()) return;
  vc(tid(stream)).join(it->second);
  pending_ops_.erase(it);
}

void Detector::on_stream_op_end(const sim::Actor& stream,
                                std::int64_t ticket) {
  (void)ticket;
  const Tid s = tid(stream);
  vc(s).tick(s);
}

void Detector::on_stream_sync(const sim::Actor& waiter,
                              const sim::Actor& stream) {
  const Tid w = tid(waiter);
  const Tid s = tid(stream);
  vc(w).join(vc(s));
}

// --- barriers ----------------------------------------------------------------

void Detector::on_barrier_arrive(const sim::Actor& actor, const void* key,
                                 std::size_t parties, std::string_view what) {
  const Tid t = tid(actor);
  BarrierState& b = barriers_[key];
  b.parties = parties;
  b.accum.join(vc(t));
  vc(t).tick(t);
  if (++b.arrived >= parties) {
    b.releases.emplace(b.gen, std::make_pair(std::move(b.accum), 0));
    b.accum.clear();
    b.arrived = 0;
    ++b.gen;
  }
  deadlock_.barrier_arrive(actor, key, parties, what);
}

void Detector::on_barrier_resume(const sim::Actor& actor, const void* key) {
  BarrierState& b = barriers_[key];
  const std::uint64_t gen = b.next_resume[actor]++;
  auto it = b.releases.find(gen);
  if (it != b.releases.end()) {
    vc(tid(actor)).join(it->second.first);
    if (++it->second.second >= b.parties) b.releases.erase(it);
  }
  deadlock_.barrier_resume(actor, key);
}

// --- signals -----------------------------------------------------------------

void Detector::on_signal_update(const sim::Actor& actor, const void* flag,
                                std::int64_t value, std::string_view what) {
  VectorClock& fc = flag_clock_[flag];
  if (actor.kind == sim::Actor::Kind::kWire) {
    // Applied while delivering a put: the flag acquires the delivering OP's
    // issue-time snapshot, not the wire's current clock (which may already
    // contain later, undelivered ops).
    auto it = last_delivered_.find(actor);
    if (it != last_delivered_.end()) fc.join(it->second);
  } else {
    const Tid t = tid(actor);
    fc.join(vc(t));
    vc(t).tick(t);
  }
  deadlock_.record_update(flag, actor, value, what);
}

void Detector::on_signal_wait_begin(const sim::Actor& actor, const void* flag,
                                    sim::Cmp cmp, std::int64_t rhs,
                                    std::string_view what) {
  deadlock_.wait_begin(actor, flag, cmp, rhs, what);
}

void Detector::on_signal_wait_end(const sim::Actor& actor, const void* flag) {
  auto it = flag_clock_.find(flag);
  if (it != flag_clock_.end()) vc(tid(actor)).join(it->second);
  deadlock_.wait_end(actor);
}

void Detector::on_signal_wait_timeout(const sim::Actor& actor,
                                      const void* /*flag*/,
                                      std::string_view /*what*/) {
  // A watchdog expiry withdraws the waiter without the predicate holding:
  // the actor acquires NO happens-before edge from the flag (no clock join),
  // it merely stops waiting. Only the open-wait bookkeeping is cleared.
  deadlock_.wait_end(actor);
}

// --- transfers ---------------------------------------------------------------

void Detector::on_put_issue(std::uint64_t op_id, const sim::Actor& issuer,
                            const sim::Actor& wire, const sim::MemRange& read,
                            const sim::MemRange& write, bool rejoin,
                            std::string_view what) {
  const Tid w = tid(wire);
  const Tid i = tid(issuer);
  vc(w).join(vc(i));
  const Epoch e{w, vc(w).tick(w)};
  // The source read and destination write are attributed to the wire at the
  // issue epoch. Sound: the wire clock covers the issuer here, and same-link
  // transfers are serialized in issue order.
  check_range(wire, vc(w), e, read, /*is_write=*/false, what);
  check_range(wire, vc(w), e, write, /*is_write=*/true, what);
  PutRec rec;
  rec.snapshot = vc(w);
  rec.issuer = issuer;
  rec.rejoin = rejoin;
  puts_.emplace(op_id, std::move(rec));
  vc(i).tick(i);
}

void Detector::on_put_deliver(std::uint64_t op_id, const sim::Actor& wire) {
  auto it = puts_.find(op_id);
  if (it == puts_.end()) return;
  PutRec rec = std::move(it->second);
  puts_.erase(it);
  if (rec.rejoin) {
    vc(tid(rec.issuer)).join(rec.snapshot);
  } else if (rec.issuer.valid()) {
    quiet_clock_[rec.issuer.a].join(rec.snapshot);
  }
  last_delivered_[wire] = std::move(rec.snapshot);
}

void Detector::on_quiet(const sim::Actor& actor, int pe,
                        std::string_view what) {
  (void)what;
  auto it = quiet_clock_.find(pe);
  if (it != quiet_clock_.end()) vc(tid(actor)).join(it->second);
}

// --- link occupancy ----------------------------------------------------------

void Detector::on_link_busy(std::uint64_t flight, std::string_view link,
                            int concurrent, sim::Nanos queued_ns,
                            std::string_view what) {
  (void)flight, (void)what;  // diagnostic tally only, no ordering effect
  auto it = link_stats_.find(link);
  if (it == link_stats_.end()) {
    it = link_stats_.emplace(std::string(link), LinkStats{}).first;
  }
  LinkStats& s = it->second;
  ++s.flights;
  if (concurrent > s.max_concurrent) s.max_concurrent = concurrent;
  s.queued_ns += queued_ns;
}

// --- application accesses ----------------------------------------------------

void Detector::on_access(const sim::Actor& actor, const sim::MemRange& range,
                         bool is_write, std::string_view what) {
  if (range.empty()) return;
  const Tid t = tid(actor);
  const Epoch e{t, vc(t).tick(t)};
  check_range(actor, vc(t), e, range, is_write, what);
}

// --- terminal diagnosis ------------------------------------------------------

void Detector::on_deadlock(std::size_t stuck_tasks) {
  deadlocked_ = true;
  deadlock_report_ = deadlock_.analyze(stuck_tasks);
}

}  // namespace check
