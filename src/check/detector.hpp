// Vector-clock happens-before race detector for CPU-Free device-side
// synchronization (the src/check/ subsystem's core).
//
// A Detector is a sim::Observer: attach it to the Engine (directly or via
// StencilConfig/CgConfig::observer) before building a World, run the
// workload, then ask for verdict()/report_text(). It never touches the
// engine, so simulated time — and therefore every metric — is bit-identical
// with and without the checker.
//
// Happens-before model (one timeline per sim::Actor):
//
//  * actor begin/end: fork joins the child with its parent's clock; join
//    folds the child back into the parent.
//  * stream FIFO: enqueue snapshots the enqueuer's clock under the ticket;
//    op begin joins it into the stream timeline; stream sync joins the
//    stream into the waiter.
//  * barriers: arrivals accumulate into a per-generation clock; the filled
//    generation's clock is released to every resuming party.
//  * signals: an update joins the producer's clock into the flag's clock; a
//    completed wait joins the flag's clock into the waiter.
//  * puts: at ISSUE the wire joins the issuer and ticks; the transfer's
//    source read and destination write are recorded at that wire epoch, and
//    the wire clock is SNAPSHOTTED per op. At DELIVERY the snapshot — not
//    the then-current wire clock, which may already contain later ops —
//    either rejoins the issuer (copies, peer stores) or is parked for the
//    issuing PE's next quiet(); a signal applied by the delivery
//    joins the snapshot into the flag. This per-op snapshot is what lets a
//    signal ordered after an iput on the same wire carry the iput's epochs
//    (in-order links) while an unordered read still races.
//
// Over-approximations (documented in DESIGN.md): a quiet() covers every
// delivered nbi op of the PE, including ops issued after the quiet began;
// purely local (unpublished) accesses are invisible.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "check/access.hpp"
#include "check/clock.hpp"
#include "check/deadlock.hpp"
#include "check/report.hpp"
#include "sim/observe.hpp"

namespace check {

class Detector final : public sim::Observer {
 public:
  /// Distinct races reported before suppression kicks in.
  static constexpr std::size_t kMaxRaces = 32;

  [[nodiscard]] Verdict verdict() const {
    if (deadlocked_) return Verdict::kDeadlock;
    return races_.empty() ? Verdict::kPass : Verdict::kRace;
  }
  [[nodiscard]] bool clean() const { return verdict() == Verdict::kPass; }
  [[nodiscard]] const std::vector<RaceReport>& races() const {
    return races_;
  }
  /// Verdict line followed by every race line and the deadlock diagnosis.
  [[nodiscard]] std::string report_text() const;

  /// Attaches the actor->job label map of an active multi-tenant serve run
  /// (nullptr detaches): race and deadlock attribution lines then carry the
  /// owning job, e.g. "pe1/k3.g0(u1@pe0) [j42:stencil]".
  void set_job_map(const sim::JobMap* jobs) noexcept {
    job_map_ = jobs;
    deadlock_.set_job_map(jobs);
  }

  // --- sim::Observer ---------------------------------------------------------
  void on_mem_block(const void* base, std::size_t bytes,
                    std::string_view name) override;
  void on_flag_name(const void* flag, std::string_view name) override;
  void on_mem_release(const void* base) override;
  void on_actor_begin(const sim::Actor& actor, const sim::Actor& parent,
                      std::string_view name) override;
  void on_actor_end(const sim::Actor& actor, const sim::Actor& parent) override;
  void on_stream_enqueue(const sim::Actor& enqueuer, const sim::Actor& stream,
                         std::int64_t ticket) override;
  void on_stream_op_begin(const sim::Actor& stream,
                          std::int64_t ticket) override;
  void on_stream_op_end(const sim::Actor& stream, std::int64_t ticket) override;
  void on_stream_sync(const sim::Actor& waiter,
                      const sim::Actor& stream) override;
  void on_barrier_arrive(const sim::Actor& actor, const void* key,
                         std::size_t parties, std::string_view what) override;
  void on_barrier_resume(const sim::Actor& actor, const void* key) override;
  void on_signal_update(const sim::Actor& actor, const void* flag,
                        std::int64_t value, std::string_view what) override;
  void on_signal_wait_begin(const sim::Actor& actor, const void* flag,
                            sim::Cmp cmp, std::int64_t rhs,
                            std::string_view what) override;
  void on_signal_wait_end(const sim::Actor& actor, const void* flag) override;
  void on_signal_wait_timeout(const sim::Actor& actor, const void* flag,
                              std::string_view what) override;
  void on_put_issue(std::uint64_t op_id, const sim::Actor& issuer,
                    const sim::Actor& wire, const sim::MemRange& read,
                    const sim::MemRange& write, bool rejoin,
                    std::string_view what) override;
  void on_put_deliver(std::uint64_t op_id, const sim::Actor& wire) override;
  void on_quiet(const sim::Actor& actor, int pe, std::string_view what) override;
  void on_link_busy(std::uint64_t flight, std::string_view link, int concurrent,
                    sim::Nanos queued_ns, std::string_view what) override;
  void on_access(const sim::Actor& actor, const sim::MemRange& range,
                 bool is_write, std::string_view what) override;
  void on_deadlock(std::size_t stuck_tasks) override;

  /// Per-link occupancy accounting from the topology ledger's event stream
  /// (not part of the happens-before state; purely diagnostic).
  struct LinkStats {
    std::uint64_t flights = 0;    // transfers that crossed the link
    int max_concurrent = 1;       // peak simultaneous flights
    sim::Nanos queued_ns = 0;     // total time spent waiting for the wire
  };
  [[nodiscard]] const std::map<std::string, LinkStats, std::less<>>&
  link_stats() const {
    return link_stats_;
  }

 private:
  struct PutRec {
    VectorClock snapshot;  // wire clock just after this op's issue
    sim::Actor issuer{};
    bool rejoin = true;
  };
  struct BarrierState {
    VectorClock accum;    // arrivals of the in-progress generation
    std::size_t arrived = 0;
    std::size_t parties = 0;
    std::uint64_t gen = 0;  // next generation to fill
    // generation -> (release clock, parties resumed so far)
    std::map<std::uint64_t, std::pair<VectorClock, std::size_t>> releases;
    std::map<sim::Actor, std::uint64_t> next_resume;
  };
  struct MemBlock {
    std::string name;
    std::size_t bytes = 0;
  };

  Tid tid(const sim::Actor& actor);
  VectorClock& vc(Tid t) { return clocks_[t]; }
  [[nodiscard]] std::string actor_desc(const sim::Actor& actor) const;
  [[nodiscard]] std::string range_desc(const sim::MemRange& range) const;
  void check_range(const sim::Actor& actor, const VectorClock& clock, Epoch e,
                   const sim::MemRange& range, bool is_write,
                   std::string_view what);

  std::map<sim::Actor, Tid> tids_;
  std::vector<VectorClock> clocks_;
  std::map<sim::Actor, std::string> actor_names_;

  std::map<std::uintptr_t, MemBlock> mem_;
  std::map<std::uintptr_t, AccessTable> shadow_;

  std::map<const void*, VectorClock> flag_clock_;
  // (stream, ticket) -> enqueuer clock at enqueue time
  std::map<std::pair<sim::Actor, std::int64_t>, VectorClock> pending_ops_;
  std::map<const void*, BarrierState> barriers_;
  std::map<std::uint64_t, PutRec> puts_;  // in flight: issued, not delivered
  // Snapshot of the most recently delivered op per wire; a signal the
  // delivery applies is published immediately after on_put_deliver.
  std::map<sim::Actor, VectorClock> last_delivered_;
  // Accumulated snapshots of delivered non-rejoining puts per source PE;
  // quiet() joins this (monotone, never cleared: a later quiet by
  // another actor on the PE must still acquire them).
  std::map<int, VectorClock> quiet_clock_;

  std::map<std::string, LinkStats, std::less<>> link_stats_;

  std::vector<RaceReport> races_;
  // (base, cur tid, prior tid, cur write?, prior write?) dedup key
  std::set<std::tuple<std::uintptr_t, Tid, Tid, bool, bool>> race_keys_;
  std::size_t suppressed_races_ = 0;

  const sim::JobMap* job_map_ = nullptr;
  bool deadlocked_ = false;
  std::string deadlock_report_;
  DeadlockAnalyzer deadlock_;
};

}  // namespace check
