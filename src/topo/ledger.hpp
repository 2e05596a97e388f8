// Link occupancy accounting: who is on which wire, at what rate, until when.
//
// The ledger charges every transfer a fair share of every link on its route.
// Two disciplines, selected by the route:
//
//  * Routes with no kShared link (`Route::contended == false`) take the
//    closed-form path `reserve_exclusive`: each kExclusive link is a FIFO
//    wire — the transfer starts when every such link is free and holds them
//    all for ceil(bytes / min_bw) ns (kUnlimited links never serialize).
//    This is computed synchronously at issue time and the caller sleeps
//    exactly once, which keeps the event sequence — and therefore the
//    simulated timeline — bit-identical to the historical flat model on the
//    crossbar topologies that re-express it.
//
//  * Routes crossing at least one kShared link go through `wire_shared`:
//    progressive filling. Every in-flight transfer gets a max-min fair share
//    of each shared link's bandwidth, recomputed only at transfer start and
//    finish events (deterministic: admission order breaks all ties, no
//    randomness). kUnlimited links on such routes cap a flight's individual
//    rate without contending; kExclusive links on such routes are treated as
//    shared capacity (none of the shipped builders produce that mix).
//
// Delivery on a route is FIFO per ordered (src, dst) pair: a later-admitted
// transfer never completes before an earlier one of the same pair, even if
// fair sharing would drain its bytes first. The checker's wire actors rely
// on this.
//
// Determinism: the ledger's only event source is Engine::schedule_callback
// timers, rescheduled (cancel + re-arm) whenever the earliest completion
// moves. Cancelled timers are dropped without advancing the clock, so
// rescheduling leaves no trace on simulated time.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "topo/router.hpp"
#include "topo/topology.hpp"

namespace topo {

class LinkLedger {
 public:
  /// Both references must outlive the ledger; routes passed to the charge
  /// calls must point into structures that outlive their transfers (the
  /// Router owns them for the machine's lifetime). `faults` (optional, must
  /// outlive the ledger when set) injects bandwidth-degradation and flap
  /// windows: while a seeded window is open for a link, the capacity the
  /// ledger charges against is scaled down. Window predicates are pure
  /// functions of (link, simulated time), so the repeated recomputes of the
  /// progressive-filling path all agree.
  LinkLedger(sim::Engine& engine, const Topology& topo,
             fault::Schedule* faults = nullptr);
  // The completion timer captures `this`, and the flight table points into
  // live coroutine frames.
  LinkLedger(const LinkLedger&) = delete;
  LinkLedger& operator=(const LinkLedger&) = delete;

  /// Closed-form reservation for an uncontended route. The wire slot starts
  /// at `earliest_start` or when every kExclusive link on the route is free,
  /// whichever is later, and lasts ceil(bytes / route.min_bw) ns (0 for
  /// zero bytes — which still claims the slot, like the flat model).
  /// Returns the wire end time; the caller owns sleeping until it.
  sim::Nanos reserve_exclusive(const Route& route, double bytes,
                               sim::Nanos earliest_start,
                               std::string_view what);

  /// Progressive-filling occupation of a contended route: sleeps the issue
  /// delay, admits the flight, and completes at the simulated instant its
  /// last byte clears the route (FIFO-clamped per ordered pair). The caller
  /// adds delivery latency afterwards.
  sim::Task wire_shared(const Route& route, double bytes,
                        sim::Nanos issue_delay, std::string_view what);

  /// Transfers currently charged through the progressive-filling path.
  [[nodiscard]] std::size_t active_flights() const noexcept {
    return flights_.size();
  }

 private:
  /// One transfer on the progressive-filling path. It lives in its own
  /// wire_shared coroutine frame: on_wake removes a landed flight from the
  /// table before setting `done`, and the coroutine resumes only later,
  /// through the event queue, so the table never holds a dead frame.
  struct Flight {
    std::uint64_t id = 0;
    const Route* route = nullptr;
    double remaining = 0.0;  // bytes left on the wire
    double rate = 0.0;       // bytes/ns (== GB/s), from the last recompute
    double cap = 0.0;        // rate ceiling from kUnlimited links on the route
    sim::Nanos finish_at = 0;
    sim::Flag done;
    explicit Flight(sim::Engine& e) : done(e, 0) {}
  };
  /// Latest finish so far of an ordered (src, dst) pair in one recompute.
  struct PairFinish {
    int src = -1;
    int dst = -1;
    sim::Nanos last = 0;
  };

  [[nodiscard]] const Link& link(int li) const {
    return topo_->links[static_cast<std::size_t>(li)];
  }
  /// Advances every flight's `remaining` to `now` at its current rate.
  void fold(sim::Nanos now);
  /// Max-min water-filling over all draining flights, then per-flight finish
  /// times with the per-pair FIFO clamp. Deterministic: admission order
  /// breaks every tie, and contended links are visited in id order.
  void recompute(sim::Nanos now);
  /// Re-arms the completion timer at the earliest flight finish.
  void reschedule(sim::Nanos now);
  void on_wake();
  /// Fault-plane bandwidth multiplier for link `li` at `at` (1.0 when no
  /// schedule is attached or the window is healthy). Publishes on_fault and
  /// counts the injection once per (link, window).
  double faulty_scale(int li, sim::Nanos at);

  sim::Engine* engine_;
  const Topology* topo_;
  fault::Schedule* faults_;
  std::vector<sim::Nanos> exclusive_busy_until_;  // per link id
  std::vector<Flight*> flights_;                  // admission order
  std::vector<int> link_flights_;  // per link id: flights whose route uses it
  std::uint64_t next_id_ = 0;
  sim::Nanos last_fold_ = 0;  // time flights' `remaining` was last advanced to
  sim::TimerToken wake_;
  sim::Nanos wake_at_ = -1;

  // Scratch of recompute() and on_wake(): cleared and refilled on every
  // call, never shrunk, so steady state allocates nothing.
  std::vector<double> residual_;  // per link id: capacity not yet handed out
  /// Per link id: draining flights on it not yet frozen. Zero for every link
  /// between recomputes (each pass freezes every flight it counted).
  std::vector<int> unfrozen_;
  std::vector<int> used_links_;  // contended links of draining flights, by id
  std::vector<Flight*> draining_;
  std::vector<Flight*> freeze_;
  std::vector<PairFinish> pair_finish_;
  std::vector<Flight*> landed_;
};

}  // namespace topo
