// The seven evaluated variants (§6.1.1) as exec::Programs over a
// SlabStencil: the halo signals (allocated with the program when its plan
// signals), the per-step host bodies of every discrete baseline, and the
// specialized persistent block groups with their block split and
// inner-kernel cost model. Who creates streams, drives the loop, launches
// the persistent kernels or joins their iterations is exec::run_program()'s
// job. Each composition issues exactly the event sequence the paper's
// variants describe (§6.1.1, Listing 4.1).
//
// Every hook captures the SlabStencil by reference and the plan, variant and
// signals by value, so a program may be copied; the stencil must outlive
// each run.
#include "stencil/variants.hpp"

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cpufree/halo.hpp"
#include "cpufree/partition.hpp"
#include "cpufree/perks.hpp"
#include "exec/comm.hpp"
#include "exec/launch.hpp"
#include "exec/sync.hpp"
#include "sim/observe.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"

namespace stencil {

namespace {

/// Publishes the halo-protocol accesses of updating `dev`'s `top_side`
/// boundary slab at iteration `t`: the read of the neighbour-owned halo slab
/// (parity t-1) and the write of the boundary slab that will travel to the
/// neighbour (parity t). No-op without a neighbour on that side.
template <class P>
void observe_boundary_update(SlabStencil<P>& S, vgpu::KernelCtx& k, int dev,
                             bool top_side, int t) {
  const bool has_neighbor = top_side ? dev > 0 : dev + 1 < S.n_pes();
  if (!has_neighbor) return;
  k.obs_access(sim::MemRange::of(S.buffer((t - 1) & 1).on(dev),
                                 S.recv_offset(dev, !top_side), S.plane()),
               /*is_write=*/false, "halo_read");
  k.obs_access(sim::MemRange::of(S.buffer(t & 1).on(dev),
                                 S.send_offset(dev, top_side), S.plane()),
               /*is_write=*/true, "boundary_write");
}

/// Publishes both sides' boundary updates of `dev` at iteration `t`.
template <class P>
void observe_both_sides(SlabStencil<P>& S, vgpu::KernelCtx& k, int dev,
                        int t) {
  observe_boundary_update(S, k, dev, /*top_side=*/true, t);
  observe_boundary_update(S, k, dev, /*top_side=*/false, t);
}

/// Checker-facing byte ranges of `dev`'s iteration-`t` halo pushes for the
/// host-staged / peer-store comm paths (null when no checker is attached).
template <class P>
exec::HaloRangeFn make_halo_ranges(SlabStencil<P>& S, int dev, int t) {
  if (S.machine().engine().observer() == nullptr) return {};
  return [&S, dev, t](bool to_top) {
    const int neighbor = to_top ? dev - 1 : dev + 1;
    auto& buf = S.buffer(t & 1);
    return std::pair{
        sim::MemRange::of(buf.on(dev), S.send_offset(dev, to_top), S.plane()),
        sim::MemRange::of(buf.on(neighbor), S.recv_offset(neighbor, to_top),
                          S.plane())};
  };
}

/// Functional payloads of `dev`'s iteration-`t` host/peer halo copies.
template <class P>
exec::HaloDeliverFn halo_deliver(SlabStencil<P>& S, int dev, int t) {
  return [&S, dev, t](bool to_top) { return S.halo_deliver(dev, to_top, t); };
}

/// Allocates the halo signals, kept by the world (a persistent run's final
/// put_signal may still be in flight when its kernels sync), and presets the
/// halo-ready flags to "iteration 0 delivered" so the first wait of every
/// signaled-put composition passes (§4.1.1).
vshmem::SignalSet* alloc_halo_signals(vshmem::World& w) {
  vshmem::SignalSet* sig = w.retain_signals(w.alloc_signals(4));
  for (int pe = 0; pe < w.n_pes(); ++pe) {
    sig->at(pe, cpufree::kTopHaloReady).set(1);
    sig->at(pe, cpufree::kBottomHaloReady).set(1);
  }
  return sig;
}

/// (kHostLoop, kStagedCopy, kHostBarrier) step: one kernel, halo memcpys in
/// the same stream, stream sync + host barrier.
template <class P>
sim::Task staged_step(SlabStencil<P>& S, exec::Plan plan, vgpu::HostCtx& h,
                      int dev, int t, vgpu::Stream& stream) {
  const std::size_t rows = S.rows(dev);
  CO_AWAIT(exec::launch_compute(
      h, stream, plan.kernel_name, "stencil",
      S.compute_bytes(static_cast<double>(rows)),
      S.update_body(dev, t, 1, rows + 1),
      [&S, dev, t](vgpu::KernelCtx& k) { observe_both_sides(S, k, dev, t); }));
  CO_AWAIT(exec::staged_halo_exchange(h, stream, dev, S.n_pes(),
                                      S.halo_bytes(), halo_deliver(S, dev, t),
                                      make_halo_ranges(S, dev, t)));
  vgpu::Stream* const streams[] = {&stream};
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kOverlapStreams, kHostBarrier) step: boundary kernel + halo
/// memcpys in a comm stream concurrent with the inner kernel in a comp
/// stream; host syncs both, then barriers.
template <class P>
sim::Task overlap_step(SlabStencil<P>& S, exec::Plan plan, vgpu::HostCtx& h,
                       int dev, int t, vgpu::Stream& comp_s,
                       vgpu::Stream& comm_s) {
  const std::size_t rows = S.rows(dev);
  // Boundary rows + halo pushes in the comm stream...
  auto fnl_top = S.update_body(dev, t, 1, 2);
  auto fnl_bot = S.update_body(dev, t, rows, rows + 1);
  auto fnl_bnd = [f1 = std::move(fnl_top), f2 = std::move(fnl_bot)] {
    if (f1) f1();
    if (f2) f2();
  };
  CO_AWAIT(exec::launch_compute(
      h, comm_s, "boundary", "boundary", S.compute_bytes(2.0),
      std::move(fnl_bnd),
      [&S, dev, t](vgpu::KernelCtx& k) { observe_both_sides(S, k, dev, t); }));
  // ...overlapped with the inner kernel in the comp stream.
  CO_AWAIT(exec::launch_compute(
      h, comp_s, "inner", "inner",
      S.compute_bytes(static_cast<double>(rows) - 2.0),
      S.update_body(dev, t, 2, rows)));
  CO_AWAIT(exec::staged_halo_exchange(h, comm_s, dev, S.n_pes(),
                                      S.halo_bytes(), halo_deliver(S, dev, t),
                                      make_halo_ranges(S, dev, t)));
  vgpu::Stream* const streams[] = {&comm_s, &comp_s};
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kPeerStore, kHostBarrier) step: one kernel writes halos
/// straight into neighbour memory; host still synchronizes every step.
template <class P>
sim::Task peer_store_step(SlabStencil<P>& S, exec::Plan plan,
                          vgpu::HostCtx& h, int dev, int t,
                          vgpu::Stream& stream) {
  const std::size_t rows = S.rows(dev);
  auto fnl = S.update_body(dev, t, 1, rows + 1);
  auto body = [&S, dev, t, rows,
               fnl = std::move(fnl)](vgpu::KernelCtx& k) -> sim::Task {
    if (k.engine().observer() != nullptr) observe_both_sides(S, k, dev, t);
    std::function<void()> f = fnl;
    co_await k.compute(S.compute_bytes(static_cast<double>(rows)), 1.0,
                       "stencil", std::move(f));
    // Device-initiated halo stores straight into neighbour memory.
    CO_AWAIT(exec::peer_store_halos(k, dev, S.n_pes(), S.halo_bytes(),
                                    halo_deliver(S, dev, t),
                                    make_halo_ranges(S, dev, t)));
  };
  CO_AWAIT(h.launch_single(stream, plan.kernel_name, std::move(body)));
  vgpu::Stream* const streams[] = {&stream};
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kSignaledPut, kStreamSync) step: compute kernel with
/// device-side signaled puts plus a dedicated neighbour-sync kernel, both
/// launched by the CPU every step; no host barrier (§6.1.1's NVSHMEM
/// baseline).
template <class P>
sim::Task signaled_step(SlabStencil<P>& S, exec::Plan plan, vgpu::HostCtx& h,
                        int dev, int t, vgpu::Stream& stream,
                        vshmem::SignalSet* sigp) {
  vshmem::World& w = S.world();
  const int n = S.n_pes();
  auto fnl = S.update_body(dev, t, 1, S.rows(dev) + 1);
  auto body = [&S, &w, sigp, dev, t, n,
               fnl = std::move(fnl)](vgpu::KernelCtx& k) -> sim::Task {
    cpufree::IterationProtocol proto(w, *sigp);
    if (k.engine().observer() != nullptr) observe_both_sides(S, k, dev, t);
    std::function<void()> f = fnl;
    co_await k.compute(S.compute_bytes(static_cast<double>(S.rows(dev))), 1.0,
                       "stencil", std::move(f));
    // Device-side signaled puts of the fresh boundary slabs.
    const vshmem::Scope scope = S.config().comm_scope;
    if (dev > 0) {
      co_await proto.put_and_signal(
          k, S.buffer(t & 1), S.send_offset(dev, true),
          S.recv_offset(dev - 1, true), S.plane(), cpufree::kBottomHaloReady,
          t + 1, dev - 1, scope);
    }
    if (dev + 1 < n) {
      co_await proto.put_and_signal(
          k, S.buffer(t & 1), S.send_offset(dev, false),
          S.recv_offset(dev + 1, false), S.plane(), cpufree::kTopHaloReady,
          t + 1, dev + 1, scope);
    }
  };
  CO_AWAIT(h.launch_single(stream, plan.kernel_name, std::move(body)));
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
  CO_AWAIT(h.launch_single(stream, "neighbor_sync", std::move(sync_body)));
  vgpu::Stream* const streams[] = {&stream};
  co_await exec::end_host_step(h, plan.sync, streams);
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
template <class P>
std::function<sim::Task(vgpu::KernelCtx&)> make_comm_group(
    SlabStencil<P>& S, vshmem::SignalSet* sigp, int dev, double bshare,
    bool top_side,
    std::function<sim::Task(vgpu::KernelCtx&, bool top_side, int t)>
        end_iteration) {
  return [&S, sigp, dev, bshare, top_side,
          end_iteration = std::move(end_iteration)](
             vgpu::KernelCtx& k) -> sim::Task {
    vshmem::World& w = S.world();
    cpufree::IterationProtocol proto(w, *sigp);
    const bool has_neighbor = top_side ? dev > 0 : dev + 1 < S.n_pes();
    const int neighbor = top_side ? dev - 1 : dev + 1;
    const std::size_t slab = top_side ? 1 : S.rows(dev);
    const auto wait_flag = cpufree::HaloPlan1D::my_ready_flag(top_side);
    const auto dest_flag = cpufree::HaloPlan1D::ready_flag_at_neighbor(top_side);
    for (int t = 1; t <= S.config().iterations; ++t) {
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
            observe_boundary_update(S, k, dev, top_side, t);
          }
          // 2. Compute my boundary slab.
          std::function<void()> f = S.update_body(dev, t, slab, slab + 1);
          co_await k.compute(S.compute_bytes(1.0), bshare, "boundary",
                             std::move(f));
          // 3+4. Commit it into the neighbour's halo and signal t+1.
          co_await proto.put_and_signal(
              k, S.buffer(t & 1), S.send_offset(dev, top_side),
              S.recv_offset(neighbor, top_side), S.plane(), dest_flag, t + 1,
              neighbor, S.config().comm_scope);
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

/// The inner TB group: the whole interior every step at `bytes` of DRAM
/// traffic per step (the composition's inner cost model).
template <class P>
std::function<sim::Task(vgpu::KernelCtx&)> make_inner_group(
    SlabStencil<P>& S, int dev, double ishare, double bytes,
    std::function<sim::Task(vgpu::KernelCtx&, int t)> end_iteration) {
  return [&S, dev, ishare, bytes, end_iteration = std::move(end_iteration)](
             vgpu::KernelCtx& k) -> sim::Task {
    for (int t = 1; t <= S.config().iterations; ++t) {
      if (!hard_skip_at(S.world(), k, t)) {
        std::function<void()> f = S.update_body(dev, t, 2, S.rows(dev));
        co_await k.compute(bytes, ishare, "inner", std::move(f));
      }
      // Skip-join: the per-iteration join runs unconditionally.
      CO_AWAIT(end_iteration(k, t));
    }
  };
}

/// Boundary/inner split of `tb_total` blocks over a PE with `inner_slabs`
/// inner slabs. The single-kernel CPU-Free variants honour the configured
/// TbPolicy ablation; the two-kernel design always splits proportionally
/// (the paper's formula, §4.1.2).
template <class P>
cpufree::TbPartition partition(const SlabStencil<P>& S, Variant v,
                               int tb_total, double inner_slabs) {
  const bool single_kernel =
      v == Variant::kCpuFree || v == Variant::kCpuFreePerks;
  const TbPolicy policy =
      single_kernel ? S.config().tb_policy : TbPolicy::kProportional;
  cpufree::TbPartition part;
  switch (policy) {
    case TbPolicy::kProportional:
      part = cpufree::specialize_blocks(
          tb_total, static_cast<double>(S.plane()),
          inner_slabs * static_cast<double>(S.plane()));
      break;
    case TbPolicy::kSingleBlock:
      part.boundary_blocks = 1;
      part.num_boundaries = 2;
      part.inner_blocks = tb_total - 2;
      break;
    case TbPolicy::kEqualSplit:
      part.boundary_blocks = tb_total / 3;
      part.num_boundaries = 2;
      part.inner_blocks = tb_total - 2 * part.boundary_blocks;
      break;
  }
  return part;
}

/// Inner-kernel DRAM bytes per step for `inner_slabs` slabs on `dev`: PERKS
/// caches the domain and tiles well; the plain persistent kernel streams it
/// and pays the software-tiling penalty at `inner_resident_threads`
/// (§4.1.4).
template <class P>
double inner_bytes(SlabStencil<P>& S, Variant v, int dev, double inner_slabs,
                   int inner_resident_threads) {
  double traffic_factor = 1.0;
  double tiling_efficiency = 1.0;
  if (v == Variant::kCpuFreePerks) {
    const cpufree::PerksModel perks_model;
    traffic_factor = perks_model.traffic_factor(
        S.local_points(dev) * 8.0,
        S.machine().device(S.world().device_of(dev)).spec());
    tiling_efficiency = perks_model.tiling_efficiency;
  } else {
    tiling_efficiency = cpufree::software_tiling_efficiency(
        S.local_points(dev), inner_resident_threads);
  }
  return S.compute_bytes(inner_slabs) * traffic_factor / tiling_efficiency;
}

/// PE `dev`'s persistent block groups (specialized comm pair + inner group)
/// under the composition's join protocol. The comm_top group `lead`s the
/// two-kernel handshake.
template <class P>
exec::ProgramGroups build_groups(SlabStencil<P>& S, Variant v, int dev,
                                 vshmem::SignalSet* sigp,
                                 const exec::IterationJoin& join) {
  vgpu::Machine& m = S.machine();
  const StencilConfig& cfg = S.config();
  const int pb = exec::resolve_persistent_blocks(
      cfg.persistent_blocks, m.spec(), cfg.threads_per_block);
  const std::size_t rows = S.rows(dev);
  const double inner_slabs = rows > 2 ? static_cast<double>(rows - 2) : 0.0;
  const cpufree::TbPartition part = partition(S, v, pb, inner_slabs);
  // `dev` is a PE index: look the spec up on the PE's physical device (the
  // identity map on a whole-machine world).
  const vgpu::DeviceSpec& dev_spec = m.device(S.world().device_of(dev)).spec();
  const double bshare = dev_spec.bw_share(part.boundary_blocks, part.total());
  const double ishare = dev_spec.bw_share(part.inner_blocks, part.total());
  const double ibytes = inner_bytes(S, v, dev, inner_slabs,
                                    part.inner_blocks * cfg.threads_per_block);

  exec::ProgramGroups pg;
  pg.comm.push_back(vgpu::BlockGroup{
      "comm_top", part.boundary_blocks,
      make_comm_group(S, sigp, dev, bshare, true, join.comm_end)});
  pg.comm.push_back(vgpu::BlockGroup{
      "comm_bottom", part.boundary_blocks,
      make_comm_group(S, sigp, dev, bshare, false, join.comm_end)});
  pg.inner.push_back(vgpu::BlockGroup{
      "inner", part.inner_blocks,
      make_inner_group(S, dev, ishare, ibytes, join.inner_end)});
  return pg;
}

}  // namespace

template <class P>
exec::Program make_slab_program(SlabStencil<P>& S, Variant v) {
  const exec::Plan plan = plan_for(v);
  exec::Program prog{.world = &S.world(),
                     .plan = plan,
                     .iterations = S.config().iterations,
                     .threads_per_block = S.config().threads_per_block};
  vshmem::SignalSet* const sigp = plan.comm == exec::CommPolicy::kSignaledPut
                                      ? alloc_halo_signals(S.world())
                                      : nullptr;
  prog.host_step = [&S, plan, sigp](vgpu::HostCtx& h, int dev, int t,
                                    std::span<vgpu::Stream* const> streams) {
    switch (plan.comm) {
      case exec::CommPolicy::kStagedCopy:
        return staged_step(S, plan, h, dev, t, *streams[0]);
      case exec::CommPolicy::kOverlapStreams:
        return overlap_step(S, plan, h, dev, t, *streams[0], *streams[1]);
      case exec::CommPolicy::kPeerStore:
        return peer_store_step(S, plan, h, dev, t, *streams[0]);
      case exec::CommPolicy::kSignaledPut:
        break;
    }
    return signaled_step(S, plan, h, dev, t, *streams[0], sigp);
  };
  prog.groups = [&S, v, sigp](int dev, const exec::IterationJoin& join) {
    return build_groups(S, v, dev, sigp, join);
  };
  // Checkpoint capture: PE `pe`'s owned interior rows 1..rows of the parity
  // buffer iteration t wrote. Stable at the capture point: iteration t+1
  // writes the opposite parity and remote puts only touch the halo rows.
  prog.capture = [&S](int pe, int t) {
    auto span = S.buffer(t & 1).on(pe).subspan(S.plane(),
                                               S.rows(pe) * S.plane());
    return std::vector<double>(span.begin(), span.end());
  };
  return prog;
}

template exec::Program make_slab_program(SlabStencil<Jacobi2D>& S, Variant v);
template exec::Program make_slab_program(SlabStencil<Jacobi3D>& S, Variant v);

}  // namespace stencil
