// run_slab(): the slab-problem adapter over the generic exec::Program
// driver. The slab-shaped pieces — halo signal presets, boundary/inner
// specialization, the per-step host bodies of every discrete baseline —
// live here; who creates streams, allocates signals, drives the loop, or
// joins persistent iterations is run_program()'s job. Each composition
// still issues exactly the event sequence the paper's variants describe
// (§6.1.1, Listing 4.1) — metric traces are bit-identical to the
// pre-refactor slab-only driver.
#include "exec/slab.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpufree/halo.hpp"
#include "exec/comm.hpp"
#include "exec/launch.hpp"
#include "exec/program.hpp"
#include "exec/sync.hpp"
#include "sim/observe.hpp"
#include "sim/sync.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"

namespace exec {

namespace {

/// Kernel body: one compute phase of `bytes` DRAM traffic at `bw_fraction`,
/// running `fnl` (the functional numerics) at phase start. `observe`
/// (nullable) publishes the phase's checker-visible accesses first.
std::function<sim::Task(vgpu::KernelCtx&)> compute_only_body(
    double bytes, double bw_fraction, const char* label,
    std::function<void()> fnl,
    std::function<void(vgpu::KernelCtx&)> observe = {}) {
  return [bytes, bw_fraction, label, fnl = std::move(fnl),
          observe = std::move(observe)](vgpu::KernelCtx& k) -> sim::Task {
    if (observe) observe(k);
    std::function<void()> body = fnl;
    co_await k.compute(bytes, bw_fraction, label, std::move(body));
  };
}

/// Publishes the halo-protocol accesses of updating `dev`'s `top_side`
/// boundary slab at iteration `t`: the read of the neighbour-owned halo slab
/// (parity t-1) and the write of the boundary slab that will travel to the
/// neighbour (parity t). No-op without a neighbour on that side.
void observe_boundary_update(const SlabProgram& P, vgpu::KernelCtx& k, int dev,
                             bool top_side, int t) {
  const bool has_neighbor = top_side ? dev > 0 : dev + 1 < P.n_pes;
  if (!has_neighbor) return;
  k.obs_access(sim::MemRange::of(P.buffer((t - 1) & 1).on(dev),
                                 P.recv_offset(dev, !top_side), P.plane),
               /*is_write=*/false, "halo_read");
  k.obs_access(sim::MemRange::of(P.buffer(t & 1).on(dev),
                                 P.send_offset(dev, top_side), P.plane),
               /*is_write=*/true, "boundary_write");
}

/// Checker hook publishing both sides' boundary updates (null when no
/// checker is attached, so disabled runs build nothing).
std::function<void(vgpu::KernelCtx&)> observe_both_sides(const SlabProgram& P,
                                                         int dev, int t) {
  if (P.machine->engine().observer() == nullptr) return {};
  return [&P, dev, t](vgpu::KernelCtx& k) {
    observe_boundary_update(P, k, dev, /*top_side=*/true, t);
    observe_boundary_update(P, k, dev, /*top_side=*/false, t);
  };
}

/// Checker-facing byte ranges of `dev`'s iteration-`t` halo pushes for the
/// host-staged / peer-store comm paths (null when no checker is attached).
HaloRangeFn make_halo_ranges(const SlabProgram& P, int dev, int t) {
  if (P.machine->engine().observer() == nullptr) return {};
  return [&P, dev, t](bool to_top) {
    const int neighbor = to_top ? dev - 1 : dev + 1;
    auto& buf = P.buffer(t & 1);
    return std::pair{
        sim::MemRange::of(buf.on(dev), P.send_offset(dev, to_top), P.plane),
        sim::MemRange::of(buf.on(neighbor), P.recv_offset(neighbor, to_top),
                          P.plane)};
  };
}

/// Presets the halo-ready flags to "iteration 0 delivered" so the first
/// wait of every signaled-put composition passes (§4.1.1).
std::unique_ptr<vshmem::SignalSet> alloc_halo_signals(vshmem::World& w,
                                                      int n_pes) {
  auto sig = w.alloc_signals(4);
  for (int pe = 0; pe < n_pes; ++pe) {
    sig->at(pe, cpufree::kTopHaloReady).set(1);
    sig->at(pe, cpufree::kBottomHaloReady).set(1);
  }
  return sig;
}

/// (kHostLoop, kStagedCopy, kHostBarrier) step: one kernel, halo memcpys in
/// the same stream, stream sync + host barrier.
sim::Task staged_step(const SlabProgram& P, const Plan& plan,
                      const SlabExecParams& prm, vgpu::HostCtx& h, int dev,
                      int t, vgpu::Stream& stream) {
  const int n = P.n_pes;
  const std::size_t rows = P.rows(dev);
  const int blocks = discrete_blocks(
      static_cast<std::size_t>(P.local_points(dev)), prm.threads_per_block);
  vgpu::LaunchConfig lc;
  lc.threads_per_block = prm.threads_per_block;
  lc.name = plan.kernel_name;
  auto fnl = P.update_body(dev, t, 1, rows + 1);
  auto body = compute_only_body(P.compute_bytes(static_cast<double>(rows)),
                                1.0, "stencil", std::move(fnl),
                                observe_both_sides(P, dev, t));
  CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body)));
  CO_AWAIT(staged_halo_exchange(
      h, stream, dev, n, P.halo_bytes,
      [&P, dev, t](bool to_top) { return P.halo_deliver(dev, to_top, t); },
      make_halo_ranges(P, dev, t)));
  vgpu::Stream* const streams[] = {&stream};
  co_await end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kOverlapStreams, kHostBarrier) step: boundary kernel + halo
/// memcpys in a comm stream concurrent with the inner kernel in a comp
/// stream; host syncs both, then barriers.
sim::Task overlap_step(const SlabProgram& P, const Plan& plan,
                       const SlabExecParams& prm, vgpu::HostCtx& h, int dev,
                       int t, vgpu::Stream& comp_s, vgpu::Stream& comm_s) {
  const int n = P.n_pes;
  const std::size_t rows = P.rows(dev);
  const int inner_blocks = discrete_blocks(
      static_cast<std::size_t>(P.local_points(dev)), prm.threads_per_block);
  const int bnd_blocks = discrete_blocks(2 * P.plane, prm.threads_per_block);
  vgpu::LaunchConfig lci;
  lci.threads_per_block = prm.threads_per_block;
  lci.name = "inner";
  vgpu::LaunchConfig lcb;
  lcb.threads_per_block = prm.threads_per_block;
  lcb.name = "boundary";
  // Boundary rows + halo pushes in the comm stream...
  auto fnl_top = P.update_body(dev, t, 1, 2);
  auto fnl_bot = P.update_body(dev, t, rows, rows + 1);
  auto fnl_bnd = [f1 = std::move(fnl_top), f2 = std::move(fnl_bot)] {
    if (f1) f1();
    if (f2) f2();
  };
  auto bnd_body =
      compute_only_body(P.compute_bytes(2.0), 1.0, "boundary",
                        std::move(fnl_bnd), observe_both_sides(P, dev, t));
  CO_AWAIT(h.launch_single(comm_s, lcb, bnd_blocks, std::move(bnd_body)));
  // ...overlapped with the inner kernel in the comp stream.
  auto fnl_in = P.update_body(dev, t, 2, rows);
  auto in_body =
      compute_only_body(P.compute_bytes(static_cast<double>(rows) - 2.0), 1.0,
                        "inner", std::move(fnl_in));
  CO_AWAIT(h.launch_single(comp_s, lci, inner_blocks, std::move(in_body)));
  CO_AWAIT(staged_halo_exchange(
      h, comm_s, dev, n, P.halo_bytes,
      [&P, dev, t](bool to_top) { return P.halo_deliver(dev, to_top, t); },
      make_halo_ranges(P, dev, t)));
  vgpu::Stream* const streams[] = {&comm_s, &comp_s};
  co_await end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kPeerStore, kHostBarrier) step: one kernel writes halos
/// straight into neighbour memory; host still synchronizes every step.
sim::Task peer_store_step(const SlabProgram& P, const Plan& plan,
                          const SlabExecParams& prm, vgpu::HostCtx& h, int dev,
                          int t, vgpu::Stream& stream) {
  const int n = P.n_pes;
  const std::size_t rows = P.rows(dev);
  const int blocks = discrete_blocks(
      static_cast<std::size_t>(P.local_points(dev)), prm.threads_per_block);
  vgpu::LaunchConfig lc;
  lc.threads_per_block = prm.threads_per_block;
  lc.name = plan.kernel_name;
  auto fnl = P.update_body(dev, t, 1, rows + 1);
  auto body = [&P, dev, t, n, rows,
               fnl = std::move(fnl)](vgpu::KernelCtx& k) -> sim::Task {
    if (k.engine().observer() != nullptr) {
      observe_boundary_update(P, k, dev, /*top_side=*/true, t);
      observe_boundary_update(P, k, dev, /*top_side=*/false, t);
    }
    std::function<void()> f = fnl;
    co_await k.compute(P.compute_bytes(static_cast<double>(rows)), 1.0,
                       "stencil", std::move(f));
    // Device-initiated halo stores straight into neighbour memory.
    CO_AWAIT(peer_store_halos(
        k, dev, n, P.halo_bytes,
        [&P, dev, t](bool to_top) { return P.halo_deliver(dev, to_top, t); },
        make_halo_ranges(P, dev, t)));
  };
  std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
  CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
  vgpu::Stream* const streams[] = {&stream};
  co_await end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kSignaledPut, kStreamSync) step: compute kernel with
/// device-side signaled puts plus a dedicated neighbour-sync kernel, both
/// launched by the CPU every step; no host barrier (§6.1.1's NVSHMEM
/// baseline).
sim::Task signaled_step(const SlabProgram& P, const Plan& plan,
                        const SlabExecParams& prm, vgpu::HostCtx& h, int dev,
                        int t, vgpu::Stream& stream,
                        vshmem::SignalSet* sigp) {
  vshmem::World& w = *P.world;
  const int n = P.n_pes;
  const std::size_t rows = P.rows(dev);
  const int blocks = discrete_blocks(
      static_cast<std::size_t>(P.local_points(dev)), prm.threads_per_block);
  vgpu::LaunchConfig lc;
  lc.threads_per_block = prm.threads_per_block;
  lc.name = plan.kernel_name;
  vgpu::LaunchConfig lsync;
  lsync.threads_per_block = 32;
  lsync.name = "neighbor_sync";
  auto fnl = P.update_body(dev, t, 1, rows + 1);
  auto body = [&P, &w, &prm, sigp, dev, t, n,
               fnl = std::move(fnl)](vgpu::KernelCtx& k) -> sim::Task {
    cpufree::IterationProtocol proto(w, *sigp);
    if (k.engine().observer() != nullptr) {
      observe_boundary_update(P, k, dev, /*top_side=*/true, t);
      observe_boundary_update(P, k, dev, /*top_side=*/false, t);
    }
    std::function<void()> f = fnl;
    co_await k.compute(P.compute_bytes(static_cast<double>(P.rows(dev))), 1.0,
                       "stencil", std::move(f));
    // Device-side signaled puts of the fresh boundary slabs.
    if (dev > 0) {
      co_await proto.put_and_signal(
          k, P.buffer(t & 1), P.send_offset(dev, true),
          P.recv_offset(dev - 1, true), P.plane, cpufree::kBottomHaloReady,
          t + 1, dev - 1, prm.comm_scope);
    }
    if (dev + 1 < n) {
      co_await proto.put_and_signal(
          k, P.buffer(t & 1), P.send_offset(dev, false),
          P.recv_offset(dev + 1, false), P.plane, cpufree::kTopHaloReady,
          t + 1, dev + 1, prm.comm_scope);
    }
  };
  std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
  CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
  // Dedicated kernel that synchronizes with the two neighbours only
  // (avoids redundantly synchronizing all PEs, §6.1.1).
  auto sync_body = [&w, sigp, dev, t, n](vgpu::KernelCtx& k) -> sim::Task {
    cpufree::IterationProtocol proto(w, *sigp);
    if (dev > 0) {
      co_await proto.wait_iteration(k, cpufree::kTopHaloReady, t + 1);
    }
    if (dev + 1 < n) {
      co_await proto.wait_iteration(k, cpufree::kBottomHaloReady, t + 1);
    }
    co_await w.quiet(k);
  };
  std::function<sim::Task(vgpu::KernelCtx&)> sync_fn = std::move(sync_body);
  CO_AWAIT(h.launch_single(stream, lsync, 1, std::move(sync_fn)));
  vgpu::Stream* const streams[] = {&stream};
  co_await end_host_step(h, plan.sync, streams);
}

/// Loop-top hard-fault check for one persistent group: declares the
/// counter-based device death the first time any resident group reaches the
/// kill iteration (publishing the incident and the job-level verdict), and
/// reports whether the group must skip iteration `t`'s work. A skipping
/// group still runs the per-iteration join — every barrier keeps seeing all
/// parties (skip-join), so aborted kernels drain cooperatively instead of
/// stranding survivors, and the launch retires through the normal path.
bool hard_skip_at(vshmem::World& w, vgpu::KernelCtx& k, int t) {
  fault::Schedule& faults = w.machine().faults();
  if (!faults.hard_enabled()) return false;
  const int dev = k.device_id();
  if (faults.note_device_iteration(dev, t, k.engine().now())) {
    std::string line = "hard-fault: device ";
    line += std::to_string(dev);
    line += " declared dead at iteration ";
    line += std::to_string(t);
    k.engine().note_incident(std::move(line));
    if (sim::Observer* o = k.engine().observer()) {
      o->on_fault(k.obs_actor(), "device-dead", "persistent_loop");
    }
    std::string why = "device ";
    why += std::to_string(dev);
    why += " declared dead";
    w.hard_stop(std::move(why));
  }
  // device_dead() (not just device_dead_at) also catches a death declared
  // by ANOTHER tenant's kernel resident on this device — iteration counters
  // differ across jobs, but a fail-stopped device is dead for everyone.
  return w.hard_stopped() || faults.device_dead(dev) ||
         faults.device_dead_at(dev, t);
}

/// The comm TB group of a persistent composition: wait for the neighbour's
/// halo, compute my boundary slab, commit it with a signaled put (Listing
/// 4.1 a/b). `end_iteration` is the composition's per-step join: grid_sync
/// alone (single kernel) or grid_sync + the local pair handshake.
std::function<sim::Task(vgpu::KernelCtx&)> make_comm_group(
    const SlabProgram& P, vshmem::World& w, vshmem::SignalSet* sigp, int dev,
    std::size_t rows, double bshare, const SlabExecParams& prm, bool top_side,
    std::function<sim::Task(vgpu::KernelCtx&, bool top_side, int t)>
        end_iteration) {
  const int n = P.n_pes;
  return [&P, &w, sigp, dev, n, rows, bshare, &prm, top_side,
          end_iteration = std::move(end_iteration)](
             vgpu::KernelCtx& k) -> sim::Task {
    cpufree::IterationProtocol proto(w, *sigp);
    const bool has_neighbor = top_side ? dev > 0 : dev + 1 < n;
    const int neighbor = top_side ? dev - 1 : dev + 1;
    const std::size_t slab = top_side ? 1 : rows;
    const auto wait_flag = cpufree::HaloPlan1D::my_ready_flag(top_side);
    const auto dest_flag = cpufree::HaloPlan1D::ready_flag_at_neighbor(top_side);
    for (int t = 1; t <= prm.iterations; ++t) {
      if (has_neighbor && !hard_skip_at(w, k, t)) {
        // 1. Wait for the neighbour's halo of the previous step. Under a
        // hard-fault plane the wait is watchdog-guarded: a dead neighbour
        // turns it into a job-level abort instead of a wedge.
        bool aborted = false;
        co_await proto.wait_iteration_abortable(k, wait_flag, t, &aborted);
        if (!aborted) {
          // The halo read is only safe AFTER that wait: publish it here so a
          // protocol that skips the wait is flagged.
          if (k.engine().observer() != nullptr) {
            observe_boundary_update(P, k, dev, top_side, t);
          }
          // 2. Compute my boundary slab.
          auto fnl = P.update_body(dev, t, slab, slab + 1);
          std::function<void()> f = std::move(fnl);
          co_await k.compute(P.compute_bytes(1.0), bshare, "boundary",
                             std::move(f));
          // 3+4. Commit it into the neighbour's halo and signal t+1.
          co_await proto.put_and_signal(
              k, P.buffer(t & 1), P.send_offset(dev, top_side),
              P.recv_offset(neighbor, top_side), P.plane, dest_flag, t + 1,
              neighbor, prm.comm_scope);
        }
      } else if (!has_neighbor) {
        // End PEs still participate in death declaration / skip decisions.
        (void)hard_skip_at(w, k, t);
      }
      // 5. Join before the next iteration (policy-specific) — even on
      // skipped iterations, so every barrier sees all parties.
      CO_AWAIT(end_iteration(k, top_side, t));
    }
  };
}

/// The inner TB group: the whole interior every step, under the
/// composition's inner cost model (PERKS caching or software tiling).
std::function<sim::Task(vgpu::KernelCtx&)> make_inner_group(
    const SlabProgram& P, int dev, std::size_t rows, double ishare,
    double inner_slabs, InnerModel im, int iterations,
    std::function<sim::Task(vgpu::KernelCtx&, int t)> end_iteration) {
  return [&P, dev, rows, ishare, inner_slabs, im, iterations,
          end_iteration = std::move(end_iteration)](
             vgpu::KernelCtx& k) -> sim::Task {
    for (int t = 1; t <= iterations; ++t) {
      if (!hard_skip_at(*P.world, k, t)) {
        auto fnl = P.update_body(dev, t, 2, rows);
        std::function<void()> f = std::move(fnl);
        const double bytes =
            P.compute_bytes(inner_slabs) * im.traffic_factor /
            im.tiling_efficiency;
        co_await k.compute(bytes, ishare, "inner", std::move(f));
      }
      // Skip-join: the per-iteration join runs unconditionally.
      CO_AWAIT(end_iteration(k, t));
    }
  };
}

cpufree::TbPartition partition_for(const SlabProgram& P,
                                   const SlabExecParams& prm, int dev,
                                   int tb_total, double inner_slabs) {
  if (prm.partition) return prm.partition(dev, tb_total);
  return cpufree::specialize_blocks(
      tb_total, static_cast<double>(P.plane),
      inner_slabs * static_cast<double>(P.plane));
}

InnerModel inner_model_for(const SlabExecParams& prm, int dev,
                           int inner_resident_threads) {
  if (prm.inner_model) return prm.inner_model(dev, inner_resident_threads);
  return InnerModel{};
}

/// PE `dev`'s persistent block groups (specialized comm pair + inner group)
/// under the composition's join protocol. The comm_top group `lead`s the
/// two-kernel handshake, matching the pre-refactor driver.
ProgramGroups build_slab_groups(const SlabProgram& P,
                                const SlabExecParams& prm, int dev,
                                vshmem::SignalSet* sigp,
                                const IterationJoin& join) {
  vgpu::Machine& m = *P.machine;
  vshmem::World& w = *P.world;
  const int pb = resolve_persistent_blocks(prm.persistent_blocks, m.spec(),
                                           prm.threads_per_block);
  const std::size_t rows = P.rows(dev);
  const double inner_slabs = rows > 2 ? static_cast<double>(rows - 2) : 0.0;
  const cpufree::TbPartition part = partition_for(P, prm, dev, pb, inner_slabs);
  // `dev` is a PE index: look the spec up on the PE's physical device (the
  // identity map on a whole-machine world).
  const vgpu::DeviceSpec& dev_spec = m.device(w.device_of(dev)).spec();
  const double bshare = dev_spec.bw_share(part.boundary_blocks, part.total());
  const double ishare = dev_spec.bw_share(part.inner_blocks, part.total());
  const InnerModel im =
      inner_model_for(prm, dev, part.inner_blocks * prm.threads_per_block);

  ProgramGroups pg;
  pg.comm.push_back(vgpu::BlockGroup{
      "comm_top", part.boundary_blocks,
      make_comm_group(P, w, sigp, dev, rows, bshare, prm, true,
                      join.comm_end)});
  pg.comm.push_back(vgpu::BlockGroup{
      "comm_bottom", part.boundary_blocks,
      make_comm_group(P, w, sigp, dev, rows, bshare, prm, false,
                      join.comm_end)});
  pg.inner.push_back(vgpu::BlockGroup{
      "inner", part.inner_blocks,
      make_inner_group(P, dev, rows, ishare, inner_slabs, im, prm.iterations,
                       join.inner_end)});
  return pg;
}

/// Wraps the slab problem as an exec::Program: halo signal allocation, the
/// four host-loop step bodies, and the persistent group builder. The
/// returned Program captures `program`, `plan` and `params` by reference —
/// all three must outlive the run (run_slab's synchronous scope, or the
/// spawnable task's frame).
Program make_slab_program(const SlabProgram& program, const Plan& plan,
                          const SlabExecParams& params) {
  Program prog;
  prog.machine = program.machine;
  prog.world = program.world;
  prog.n_pes = program.n_pes;
  prog.signals = [&program](vshmem::World& w) {
    return alloc_halo_signals(w, program.n_pes);
  };
  prog.streams_per_device =
      plan.comm == CommPolicy::kOverlapStreams ? 2 : 1;
  switch (plan.comm) {
    case CommPolicy::kStagedCopy:
      prog.host_step = [&program, &plan, &params](
                           vgpu::HostCtx& h, int dev, int t,
                           std::span<vgpu::Stream* const> streams,
                           vshmem::SignalSet*) {
        return staged_step(program, plan, params, h, dev, t, *streams[0]);
      };
      break;
    case CommPolicy::kOverlapStreams:
      prog.host_step = [&program, &plan, &params](
                           vgpu::HostCtx& h, int dev, int t,
                           std::span<vgpu::Stream* const> streams,
                           vshmem::SignalSet*) {
        return overlap_step(program, plan, params, h, dev, t, *streams[0],
                            *streams[1]);
      };
      break;
    case CommPolicy::kPeerStore:
      prog.host_step = [&program, &plan, &params](
                           vgpu::HostCtx& h, int dev, int t,
                           std::span<vgpu::Stream* const> streams,
                           vshmem::SignalSet*) {
        return peer_store_step(program, plan, params, h, dev, t, *streams[0]);
      };
      break;
    case CommPolicy::kSignaledPut:
      prog.host_step = [&program, &plan, &params](
                           vgpu::HostCtx& h, int dev, int t,
                           std::span<vgpu::Stream* const> streams,
                           vshmem::SignalSet* sigp) {
        return signaled_step(program, plan, params, h, dev, t, *streams[0],
                             sigp);
      };
      break;
  }
  prog.groups = [&program, &params](int dev, vshmem::SignalSet* sigp,
                                    const IterationJoin& join) {
    return build_slab_groups(program, params, dev, sigp, join);
  };
  // Checkpoint capture: PE `pe`'s owned interior rows 1..rows of the parity
  // buffer iteration t wrote. Stable at the capture point: iteration t+1
  // writes the opposite parity and remote puts only touch the halo rows.
  prog.capture = [&program](int pe, int t) {
    const std::size_t rows = program.rows(pe);
    auto span = program.buffer(t & 1).on(pe).subspan(program.plane,
                                                     rows * program.plane);
    return std::vector<double>(span.begin(), span.end());
  };
  return prog;
}

}  // namespace

sim::Task run_slab_persistent_task(const SlabProgram& program,
                                   const Plan& plan,
                                   const SlabExecParams& params) {
  // The adapter Program lives on this frame, which outlives the inner task.
  const Program prog = make_slab_program(program, plan, params);
  co_await run_program_persistent_task(prog, plan, params);
}

void run_slab(const SlabProgram& program, const Plan& plan,
              const SlabExecParams& params) {
  if (!valid(plan)) {
    throw std::invalid_argument(invalid_plan_message("run_slab", plan));
  }
  const Program prog = make_slab_program(program, plan, params);
  run_program(prog, plan, params);
}

}  // namespace exec
