// Halo-exchange plan and iteration-flag protocol (paper §4.1.1, Fig. 4.1).
//
// A 1D domain decomposition assigns each PE up to two neighbours (top and
// bottom; non-periodic at the ends). Each PE owns four symmetric signal
// variables — a (ready-to-read, consumed) pair per neighbour direction —
// and synchronizes with the iteration-number semaphore protocol: the sender
// sets the receiver's flag to the iteration it just produced; the receiver
// waits until the flag reaches the current iteration.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "fault/schedule.hpp"
#include "sim/observe.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "vgpu/kernel.hpp"
#include "vshmem/world.hpp"

namespace cpufree {

/// Signal slots per PE (indices into a SignalSet of size 4).
enum HaloFlag : std::size_t {
  kTopHaloReady = 0,     // top neighbour produced my top halo for iter t
  kBottomHaloReady = 1,  // bottom neighbour produced my bottom halo
  kTopAck = 2,           // top neighbour consumed the values I sent (flow control)
  kBottomAck = 3,
};

/// Neighbour topology of a 1D (slab) decomposition.
struct HaloPlan1D {
  int pe = 0;
  int n_pes = 1;

  [[nodiscard]] std::optional<int> top() const {
    return pe > 0 ? std::optional<int>(pe - 1) : std::nullopt;
  }
  [[nodiscard]] std::optional<int> bottom() const {
    return pe + 1 < n_pes ? std::optional<int>(pe + 1) : std::nullopt;
  }
  [[nodiscard]] int neighbor_count() const {
    return (top() ? 1 : 0) + (bottom() ? 1 : 0);
  }
  /// The flag on the NEIGHBOUR that I set when I deliver its halo: my top
  /// neighbour receives into its bottom side and vice versa.
  [[nodiscard]] static HaloFlag ready_flag_at_neighbor(bool to_top) {
    return to_top ? kBottomHaloReady : kTopHaloReady;
  }
  /// The flag on MY PE that the neighbour sets when my halo arrived.
  [[nodiscard]] static HaloFlag my_ready_flag(bool from_top) {
    return from_top ? kTopHaloReady : kBottomHaloReady;
  }
};

/// The iteration-number semaphore protocol over a SignalSet: flags count
/// iterations; waiting compares against the current iteration (§4.1.1).
///
/// Flags are plain signal indices so any layout works: the stencil's four
/// HaloFlag slots, CG's `channel*n + peer` reduction flags, or the signal
/// indices a lowered SDFG assigns (HaloFlag converts implicitly).
///
/// With the machine's fault plane active and a fault::Resilience rung
/// configured, the wait side is watchdog-guarded (DESIGN.md §10): senders
/// record their progress in the SignalSet's shadow slots before issuing, and
/// a receiver whose deadline expires probes that record — a lost signal is
/// re-pulled (bounded retries), a slow sender is given longer deadlines, and
/// exhausted retries drop the PE onto the degradation ladder. All protocol
/// state lives in the shared SignalSet/Schedule, so the transient
/// IterationProtocol instances the exec layer creates per kernel body all
/// see it.
class IterationProtocol {
 public:
  IterationProtocol(vshmem::World& world, vshmem::SignalSet& signals)
      : world_(&world), signals_(&signals) {}

  /// Sender side: deliver `count` elements of `arr` into `dst_pe` and mark
  /// them as iteration `iter` on the destination's `flag`.
  template <typename T>
  sim::Task put_and_signal(vgpu::KernelCtx& ctx, vshmem::Sym<T>& arr,
                           std::size_t src_off, std::size_t dst_off,
                           std::size_t count, std::size_t flag,
                           std::int64_t iter, int dst_pe,
                           vshmem::Scope scope = vshmem::Scope::kBlock) {
    // Only a recovering wait ever re-runs the redelivery closure.
    std::function<void()> redeliver;
    if (world_->machine().faults().recovers_signals()) {
      redeliver = make_redeliver(arr, world_->pe_of(ctx.device_id()), dst_pe,
                                 src_off, dst_off, count);
    }
    note_issue(ctx, dst_pe, flag, iter, static_cast<double>(count * sizeof(T)),
               std::move(redeliver));
    co_await world_->putmem_signal_nbi(ctx, arr, src_off, dst_off, count,
                                       *signals_, flag, iter,
                                       vshmem::SignalOp::kSet, dst_pe, scope);
  }

  /// Receiver side: wait until `flag` on my PE reaches iteration `iter`.
  /// Plain signal wait unless the fault plane and a resilience rung are
  /// active, in which case the watchdog/retry/degrade ladder runs.
  sim::Task wait_iteration(vgpu::KernelCtx& ctx, std::size_t flag,
                           std::int64_t iter) {
    // Only the signal-coupled classes can lose or reorder updates; window
    // masks (link/flap/stall) merely stretch time, so their waits stay
    // plain and shadow-free.
    if (!world_->machine().faults().recovers_signals()) {
      co_await world_->signal_wait_until(ctx, *signals_, flag, sim::Cmp::kGe,
                                         iter);
      co_return;
    }
    co_await wait_resilient(ctx, flag, iter);
  }

  /// Receiver side with job-level fail-stop escalation: like wait_iteration,
  /// but a watchdog expiry also consults the hard-fault plane. Once a device
  /// (or link) inside this world's slice has been declared dead the wait
  /// gives up, records a hard stop on the world and returns with
  /// *aborted = true; the caller is expected to skip-join the remaining
  /// iterations so every barrier still sees all parties. Falls back to
  /// wait_iteration when no hard faults are configured.
  sim::Task wait_iteration_abortable(vgpu::KernelCtx& ctx, std::size_t flag,
                                     std::int64_t iter, bool* aborted) {
    fault::Schedule& faults = world_->machine().faults();
    *aborted = false;
    if (!faults.hard_enabled()) {
      co_await wait_iteration(ctx, flag, iter);
      co_return;
    }
    const fault::Config& fc = faults.config();
    const int me = world_->pe_of(ctx.device_id());
    sim::Flag& f = signals_->at(me, flag);
    // Probe period: the configured watchdog deadline, or a generous default
    // when no transient-resilience rung supplied one (hard faults always
    // need a watchdog to turn a silent peer into a verdict).
    const sim::Nanos probe =
        fc.retry.timeout > 0 ? fc.retry.timeout : kDefaultHardProbe;
    for (int probes = 0;; ++probes) {
      if (world_->hard_stopped()) {
        // Another group of this job already reached the verdict.
        *aborted = true;
        co_return;
      }
      bool ok = false;
      co_await ctx.spin_wait_for(f, sim::Cmp::kGe, iter, probe, "signal_wait",
                                 &ok);
      if (ok) {
        if (faults.recovers_signals()) co_await ensure_landed(ctx, flag, iter);
        co_return;
      }
      ++faults.stats().watchdog_fires;
      if (faults.recovers_signals() &&
          signals_->shadow(me, flag).progress >= iter) {
        // Transient loss with a live sender: re-pull, no escalation.
        co_await recover(ctx, flag);
        co_return;
      }
      if (escalate_if_dead(aborted)) co_return;
      if (probes >= kMaxHardProbes) {
        // Nothing in the slice is dead and the sender still has not issued:
        // this is a genuine protocol hang, not a hard fault. Fall back to
        // the plain blocking wait so the engine's attributed hang report
        // fires instead of an unbounded poll loop.
        co_await world_->signal_wait_until(ctx, *signals_, flag, sim::Cmp::kGe,
                                           iter);
        co_return;
      }
    }
  }

  /// Pure signal without payload (ack / flow-control edges).
  sim::Task signal_only(vgpu::KernelCtx& ctx, std::size_t flag,
                        std::int64_t iter, int dst_pe) {
    note_issue(ctx, dst_pe, flag, iter, 0.0, {});
    co_await world_->signal_op(ctx, *signals_, flag, iter,
                               vshmem::SignalOp::kSet, dst_pe);
  }

 private:
  /// Defensive bound on degraded polling: a sender that never issues is a
  /// real deadlock and should surface through the engine's attributed
  /// hang report, not an unbounded poll loop.
  static constexpr int kMaxDegradedPolls = 1 << 14;
  /// Watchdog deadline for the hard-fault path when no transient rung
  /// configured one, and the matching probe bound before an abortable wait
  /// concludes the hang is real rather than a not-yet-declared death.
  static constexpr sim::Nanos kDefaultHardProbe = 200'000;
  static constexpr int kMaxHardProbes = 1 << 10;

  /// Scans this world's slice for declared-dead devices and, on a hit,
  /// records the job-level hard stop. Returns true when the caller must
  /// abort. Non-coroutine so the scan is atomic w.r.t. the engine.
  bool escalate_if_dead(bool* aborted) {
    fault::Schedule& faults = world_->machine().faults();
    for (int pe = 0; pe < world_->n_pes(); ++pe) {
      const int dev = world_->device_of(pe);
      if (faults.device_dead(dev)) {
        std::string why = "device ";
        why += std::to_string(dev);
        why += " declared dead";
        world_->hard_stop(std::move(why));
        *aborted = true;
        return true;
      }
    }
    return false;
  }

  template <typename T>
  [[nodiscard]] std::function<void()> make_redeliver(vshmem::Sym<T>& arr,
                                                     int src_pe, int dst_pe,
                                                     std::size_t src_off,
                                                     std::size_t dst_off,
                                                     std::size_t count) {
    vshmem::World* w = world_;
    return [w, &arr, src_pe, dst_pe, src_off, dst_off, count] {
      if (!w->functional()) return;
      auto src = arr.on(src_pe).subspan(src_off, count);
      auto dst = arr.on(dst_pe).subspan(dst_off, count);
      std::copy(src.begin(), src.end(), dst.begin());
    };
  }

  /// Records the sender's progress toward (dst_pe, flag) BEFORE the issue,
  /// so a receiver-side watchdog observing the record can trust that the
  /// update is (or was) in flight. No-op when recovery can never run.
  void note_issue(vgpu::KernelCtx& ctx, int dst_pe, std::size_t flag,
                  std::int64_t iter, double bytes,
                  std::function<void()> redeliver) {
    // Shadows are recovery state for the signal-coupled classes only;
    // window and hard masks never re-pull, so they skip the write entirely.
    if (!world_->machine().faults().recovers_signals()) return;
    vshmem::SignalShadow& sh = signals_->shadow(dst_pe, flag);
    if (sh.progress == 0 && sh.landed == 0) {
      // First issue toward this flag: values below it (e.g. preset
      // ready-flags) count as delivered, so the contiguity watermark
      // starts immediately behind the live protocol.
      sh.landed = iter - 1;
    }
    if (iter >= sh.progress) {
      sh.progress = iter;
      sh.src_pe = world_->pe_of(ctx.device_id());
      sh.bytes = bytes;
    }
    if (redeliver) sh.pending.emplace(iter, std::move(redeliver));
    // Trim: delivered entries, then a defensive size bound (the protocols
    // stay within a couple of iterations of their receivers).
    while (!sh.pending.empty() && sh.pending.begin()->first <= sh.landed) {
      sh.pending.erase(sh.pending.begin());
    }
    while (sh.pending.size() > 8) sh.pending.erase(sh.pending.begin());
  }

  /// The watchdog/retry/degradation ladder (DESIGN.md §10).
  sim::Task wait_resilient(vgpu::KernelCtx& ctx, std::size_t flag,
                           std::int64_t iter) {
    fault::Schedule& faults = world_->machine().faults();
    const fault::Config& fc = faults.config();
    const int me = world_->pe_of(ctx.device_id());
    // Degradation is sticky per physical device (the fallback
    // reconfiguration outlives any one tenant's world).
    const int me_dev = ctx.device_id();
    sim::Flag& f = signals_->at(me, flag);
    if (!faults.degraded(me_dev)) {
      for (int attempt = 0; attempt <= fc.retry.max_retries; ++attempt) {
        bool ok = false;
        co_await ctx.spin_wait_for(f, sim::Cmp::kGe, iter,
                                   fault::attempt_timeout(fc.retry, attempt),
                                   "signal_wait", &ok);
        if (ok) {
          co_await ensure_landed(ctx, flag, iter);
          co_return;
        }
        ++faults.stats().watchdog_fires;
        if (signals_->shadow(me, flag).progress >= iter) {
          // The sender already issued this iteration: the signal (or its
          // payload) was lost in flight. Re-pull it.
          co_await recover(ctx, flag);
          co_return;
        }
        // Not issued yet (slow or stalled sender): the next attempt waits
        // longer (linear backoff), giving the sender time to catch up.
      }
      if (fc.resilience != fault::Resilience::kRetryDegrade) {
        // Retries exhausted with no degradation rung: fall back to the
        // plain wait so a genuine hang gets the engine's attributed report.
        co_await world_->signal_wait_until(ctx, *signals_, flag, sim::Cmp::kGe,
                                           iter);
        co_await ensure_landed(ctx, flag, iter);
        co_return;
      }
      faults.mark_degraded(me_dev);
    }
    // Degraded mode (sticky per PE): host-style polling that probes the
    // shadow record each period, so even a lost signal converges.
    ++faults.stats().degraded_iters;
    const sim::Nanos poll = fc.retry.timeout > 0 ? fc.retry.timeout : 1;
    for (int polls = 0; f.value() < iter; ++polls) {
      if (signals_->shadow(me, flag).progress >= iter) {
        co_await recover(ctx, flag);
        co_return;
      }
      if (polls >= kMaxDegradedPolls) {
        co_await world_->signal_wait_until(ctx, *signals_, flag, sim::Cmp::kGe,
                                           iter);
        break;
      }
      co_await ctx.busy(poll, sim::Cat::kSync, "degraded_poll");
    }
    // The poll loop can observe the flag raw (no wait hooks ran): acquire the
    // flag's happens-before state explicitly before releasing the waiter.
    if (sim::Observer* o = world_->machine().engine().observer()) {
      o->on_signal_wait_end(ctx.obs_actor(), &f);
    }
    co_await ensure_landed(ctx, flag, iter);
  }

  /// The >= predicate is satisfied — but was it satisfied by the update the
  /// waiter actually needs? A dropped put whose flag is then superseded by
  /// the NEXT iteration's signal never trips the watchdog (the wait wakes
  /// almost on time) yet leaves stale halo data: the silent-supersede hazard
  /// of monotonic iteration flags. The shadow's contiguity watermark makes
  /// it visible: issued past `iter` but landed short of it means data for
  /// this iteration is missing — re-pull it.
  sim::Task ensure_landed(vgpu::KernelCtx& ctx, std::size_t flag,
                          std::int64_t iter) {
    const vshmem::SignalShadow& sh =
        signals_->shadow(world_->pe_of(ctx.device_id()), flag);
    if (sh.progress >= iter && sh.landed < iter) {
      co_await recover(ctx, flag);
    }
  }

  /// Re-pulls the latest shadowed update for (my PE, flag): charges a
  /// get-shaped round trip, re-runs the functional payload copy, publishes
  /// the signal update attributed to the delivering wire (the checker
  /// inherits the sender's epoch — no false race) and advances the flag
  /// monotonically (a concurrent late delivery must not be rewound).
  sim::Task recover(vgpu::KernelCtx& ctx, std::size_t flag) {
    const int me = world_->pe_of(ctx.device_id());
    ++world_->machine().faults().stats().retries;
    vshmem::SignalShadow& sh = signals_->shadow(me, flag);
    const vgpu::LinkSpec& link = world_->machine().spec().link;
    sim::Nanos cost =
        2 * (link.device_initiated_latency + link.small_op_overhead);
    if (sh.bytes > 0.0) cost += link.wire_time(sh.bytes);
    co_await ctx.busy(cost, sim::Cat::kComm, "retry_refetch");
    // Re-read after the round trip: the sender may have advanced meanwhile,
    // and pulling its freshest state is both correct and cheaper.
    const std::int64_t value = sh.progress;
    // Re-run every payload copy that was issued but never landed (the
    // pending map holds them in iteration order); copies that DID land are
    // skipped — re-copying them would be redundant but harmless.
    for (auto it = sh.pending.begin();
         it != sh.pending.end() && it->first <= value;
         it = sh.pending.erase(it)) {
      if (it->first > sh.landed && it->second) it->second();
    }
    if (sh.landed < value) sh.landed = value;
    sim::Flag& f = signals_->at(me, flag);
    if (sim::Observer* o = world_->machine().engine().observer()) {
      // Physical wire actor (sh.src_pe is a PE index of this world).
      o->on_signal_update(
          sim::Actor::wire(sh.src_pe >= 0 ? world_->device_of(sh.src_pe)
                                          : sh.src_pe,
                           ctx.device_id()),
          &f, value, "retry");
      // The recovering waiter consumed that update: acquire the flag's
      // happens-before state exactly as a completed wait would (the timed-out
      // wait acquired nothing — see Detector::on_signal_wait_timeout).
      o->on_signal_wait_end(ctx.obs_actor(), &f);
    }
    if (f.value() < value) f.set(value);
  }

  vshmem::World* world_;
  vshmem::SignalSet* signals_;
};

}  // namespace cpufree
