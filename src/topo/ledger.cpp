#include "topo/ledger.hpp"

#include <algorithm>
#include <limits>

#include "sim/intmath.hpp"
#include "sim/observe.hpp"

namespace topo {

namespace {

// Bytes below this are "drained" (absorbs float error from rate * dt folds).
constexpr double kEpsBytes = 1e-6;
// Transient rate marker: a draining flight not yet frozen in this
// recompute() pass.
constexpr double kUnfrozen = -1.0;

}  // namespace

LinkLedger::LinkLedger(sim::Engine& engine, const Topology& topo,
                       fault::Schedule* faults)
    : engine_(&engine),
      topo_(&topo),
      faults_(faults),
      exclusive_busy_until_(topo.links.size(), 0),
      link_flights_(topo.links.size(), 0),
      residual_(topo.links.size(), 0.0),
      unfrozen_(topo.links.size(), 0) {}

double LinkLedger::faulty_scale(int li, sim::Nanos at) {
  if (faults_ == nullptr || !faults_->enabled()) return 1.0;
  const auto id = static_cast<std::uint64_t>(li);
  const double s = faults_->link_scale(id, at);
  if (s < 1.0 && faults_->first_sight(fault::Site::kLinkWindow, id, at)) {
    if (sim::Observer* o = engine_->observer()) {
      // Machine-level fault: no single actor timeline owns a link window, so
      // the actor slot stays invalid and `what` names the wire.
      o->on_fault(sim::Actor{}, fault::site_name(fault::Site::kLinkWindow),
                  link(li).name);
    }
  }
  return s;
}

sim::Nanos LinkLedger::reserve_exclusive(const Route& route, double bytes,
                                         sim::Nanos earliest_start,
                                         std::string_view what) {
  sim::Nanos start = earliest_start;
  for (int li : route.links) {
    if (link(li).policy == LinkPolicy::kExclusive) {
      start = std::max(start, exclusive_busy_until_[static_cast<std::size_t>(li)]);
    }
  }
  // A degradation window open at the wire slot's start scales the whole
  // reservation (the closed-form path charges one rate per transfer).
  double bw = route.min_bw;
  if (faults_ != nullptr && faults_->enabled()) {
    double s = 1.0;
    for (int li : route.links) s = std::min(s, faulty_scale(li, start));
    if (s > 0.0) bw *= s;
  }
  const sim::Nanos dur = bytes <= 0.0 ? 0 : sim::ceil_nanos(bytes / bw);
  const sim::Nanos end = start + dur;
  for (int li : route.links) {
    if (link(li).policy == LinkPolicy::kExclusive) {
      exclusive_busy_until_[static_cast<std::size_t>(li)] = end;
    }
  }
  if (sim::Observer* o = engine_->observer()) {
    const std::uint64_t id = next_id_++;
    for (int li : route.links) {
      o->on_link_busy(id, link(li).name, /*concurrent=*/1,
                      start - earliest_start, what);
    }
    // The release is pure observation at the wire end; the caller's own
    // completion delay always reaches or passes that instant, so simulated
    // time is unaffected.
    engine_->schedule_callback(
        [this, id, links = route.links] {
          if (sim::Observer* obs = engine_->observer()) {
            for (int li : links) {
              obs->on_link_release(id, link(li).name, /*concurrent=*/0);
            }
          }
        },
        end - engine_->now());
  }
  return end;
}

sim::Task LinkLedger::wire_shared(const Route& route, double bytes,
                                  sim::Nanos issue_delay,
                                  std::string_view what) {
  co_await engine_->delay(issue_delay);
  if (bytes <= 0.0) co_return;
  const sim::Nanos now = engine_->now();
  fold(now);
  Flight f(*engine_);
  f.id = next_id_++;
  f.route = &route;
  f.remaining = bytes;
  for (int li : route.links) {
    ++link_flights_[static_cast<std::size_t>(li)];
    const Link& l = link(li);
    if (l.policy == LinkPolicy::kUnlimited &&
        (f.cap == 0.0 || l.bw_gbps < f.cap)) {
      f.cap = l.bw_gbps;
    }
  }
  flights_.push_back(&f);
  if (sim::Observer* o = engine_->observer()) {
    for (int li : route.links) {
      o->on_link_busy(f.id, link(li).name,
                      link_flights_[static_cast<std::size_t>(li)],
                      /*queued_ns=*/0, what);
    }
  }
  recompute(now);
  reschedule(now);
  co_await f.done.wait_geq(1);
}

void LinkLedger::fold(sim::Nanos now) {
  const double dt = static_cast<double>(now - last_fold_);
  if (dt > 0.0) {
    for (Flight* f : flights_) {
      f->remaining = std::max(0.0, f->remaining - f->rate * dt);
    }
  }
  last_fold_ = now;
}

void LinkLedger::recompute(sim::Nanos now) {
  // Max-min water-filling over flights that still have bytes on the wire.
  // Contended capacity per link (kShared; kExclusive treated the same on the
  // rare mixed route) is read once, at the link's first draining user.
  draining_.clear();
  used_links_.clear();
  for (Flight* f : flights_) {
    if (f->remaining <= kEpsBytes) {
      f->rate = 0.0;
      continue;
    }
    f->rate = kUnfrozen;
    draining_.push_back(f);
    for (int li : f->route->links) {
      const Link& l = link(li);
      if (l.policy == LinkPolicy::kUnlimited) continue;
      const auto i = static_cast<std::size_t>(li);
      if (unfrozen_[i]++ == 0) {
        used_links_.push_back(li);
        residual_[i] = l.bw_gbps * faulty_scale(li, now);
      }
    }
  }
  std::sort(used_links_.begin(), used_links_.end());
  std::size_t unfrozen = draining_.size();
  while (unfrozen > 0) {
    // The next bottleneck: smallest equal-split share over any contended
    // link, or the smallest per-flight kUnlimited cap, whichever binds first.
    double share = std::numeric_limits<double>::infinity();
    for (int li : used_links_) {
      const auto i = static_cast<std::size_t>(li);
      if (unfrozen_[i] > 0) {
        share = std::min(share, residual_[i] / unfrozen_[i]);
      }
    }
    for (Flight* f : draining_) {
      if (f->rate == kUnfrozen && f->cap > 0.0) share = std::min(share, f->cap);
    }
    // Freeze every flight pinned by a constraint at the bottleneck share.
    // Counts and residuals only change after the marking, so the frozen set
    // does not depend on the order flights or links are visited in.
    const double lim = share * (1.0 + 1e-12);
    freeze_.clear();
    auto bottleneck = [this, lim](int li) {
      const auto i = static_cast<std::size_t>(li);
      return link(li).policy != LinkPolicy::kUnlimited &&
             residual_[i] / unfrozen_[i] <= lim;
    };
    for (Flight* f : draining_) {
      if (f->rate != kUnfrozen) continue;
      const std::vector<int>& links = f->route->links;
      if ((f->cap > 0.0 && f->cap <= lim) ||
          std::any_of(links.begin(), links.end(), bottleneck)) {
        freeze_.push_back(f);
      }
    }
    if (freeze_.empty()) {
      // Numerical backstop; unreachable for exact-arithmetic inputs.
      for (Flight* f : draining_) {
        if (f->rate == kUnfrozen) freeze_.push_back(f);
      }
    }
    // Every frozen flight takes the same share from each of its links, so
    // the order of the subtractions leaves every residual unchanged.
    for (Flight* f : freeze_) {
      f->rate = share;
      for (int li : f->route->links) {
        if (link(li).policy == LinkPolicy::kUnlimited) continue;
        const auto i = static_cast<std::size_t>(li);
        residual_[i] = std::max(0.0, residual_[i] - share);
        --unfrozen_[i];
      }
      --unfrozen;
    }
  }
  // Finish times, clamped FIFO per ordered (src, dst) pair in admission
  // order: a later transfer of a pair never lands before an earlier one.
  pair_finish_.clear();
  for (Flight* f : flights_) {
    sim::Nanos fin = now;
    if (f->remaining > kEpsBytes) {
      fin = now + sim::ceil_nanos(f->remaining / f->rate);
    } else {
      f->remaining = 0.0;
    }
    const int src = f->route->src;
    const int dst = f->route->dst;
    auto it = std::find_if(pair_finish_.begin(), pair_finish_.end(),
                           [src, dst](const PairFinish& p) {
                             return p.src == src && p.dst == dst;
                           });
    if (it == pair_finish_.end()) {
      pair_finish_.push_back(PairFinish{src, dst, fin});
    } else {
      fin = std::max(fin, it->last);
      it->last = fin;
    }
    f->finish_at = fin;
  }
}

void LinkLedger::reschedule(sim::Nanos now) {
  if (flights_.empty()) {
    wake_.cancel();
    wake_at_ = -1;
    return;
  }
  sim::Nanos next = std::numeric_limits<sim::Nanos>::max();
  for (const Flight* f : flights_) next = std::min(next, f->finish_at);
  if (wake_.armed() && wake_at_ == next) return;
  wake_.cancel();
  wake_ = engine_->schedule_callback([this] { on_wake(); }, next - now);
  wake_at_ = next;
}

void LinkLedger::on_wake() {
  const sim::Nanos now = engine_->now();
  wake_at_ = -1;
  fold(now);
  // Compact the table in place, keeping admission order.
  landed_.clear();
  std::size_t kept = 0;
  for (Flight* f : flights_) {
    if (f->finish_at <= now) {
      landed_.push_back(f);
      for (int li : f->route->links) {
        --link_flights_[static_cast<std::size_t>(li)];
      }
    } else {
      flights_[kept++] = f;
    }
  }
  flights_.resize(kept);
  if (sim::Observer* o = engine_->observer()) {
    for (const Flight* f : landed_) {
      for (int li : f->route->links) {
        o->on_link_release(f->id, link(li).name,
                           link_flights_[static_cast<std::size_t>(li)]);
      }
    }
  }
  recompute(now);
  reschedule(now);
  // Wake the transfers last, with the ledger already consistent; they resume
  // through the event queue at the current instant, in admission order.
  for (Flight* f : landed_) f->done.set(1);
}

}  // namespace topo
