// run_program(): the workload-agnostic composition driver. Owns everything
// the (launch, comm, sync) Plan implies — peer-access enablement, signal
// allocation, stream creation, the host loop or the persistent launches,
// and the per-iteration join protocol — in the exact resource-creation
// order the pre-refactor slab driver used, so adapting run_slab() onto this
// driver keeps every metric trace byte-identical.
#include "exec/program.hpp"

#include <cstddef>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpufree/launch.hpp"
#include "exec/launch.hpp"
#include "exec/sync.hpp"
#include "sim/sync.hpp"

namespace exec {

namespace {

/// The single-kernel persistent join: every group meets at grid.sync().
IterationJoin grid_only_join() {
  IterationJoin join;
  join.comm_end = [](vgpu::KernelCtx& k, bool, int) -> sim::Task {
    co_await k.grid_sync();
  };
  join.inner_end = [](vgpu::KernelCtx& k, int) -> sim::Task {
    co_await k.grid_sync();
  };
  return join;
}

/// The single-kernel join with periodic checkpointing layered on: after the
/// grid_sync of a capture iteration, the lead comm group snapshots the PE's
/// owned state into the store and charges the capture's DRAM drain to
/// simulated time. The guard is a pure function of (device, t): a PE whose
/// device is dead at t, or whose job has been hard-stopped (always set
/// before the join's barrier releases when any group skipped part of t),
/// must not commit a slice of a half-finished iteration.
IterationJoin checkpointing_join(const Program& P,
                                 const ProgramExecParams& prm) {
  IterationJoin join = grid_only_join();
  if (prm.checkpoint_every <= 0 || prm.checkpoint_store == nullptr ||
      !P.capture) {
    return join;
  }
  const Program* Pp = &P;
  const int every = prm.checkpoint_every;
  const int iterations = prm.iterations;
  CheckpointStore* store = prm.checkpoint_store;
  join.comm_end = [Pp, every, iterations, store](vgpu::KernelCtx& k, bool lead,
                                                 int t) -> sim::Task {
    co_await k.grid_sync();
    if (!lead || t % every != 0 || t >= iterations) co_return;
    vshmem::World& w = *Pp->world;
    if (w.hard_stopped() ||
        w.machine().faults().device_dead(k.device_id()) ||
        w.machine().faults().device_dead_at(k.device_id(), t)) {
      co_return;
    }
    const int pe = w.pe_of(k.device_id());
    std::vector<double> slice = Pp->capture(pe, t);
    const double bytes =
        static_cast<double>(slice.size()) * static_cast<double>(sizeof(double));
    co_await k.busy(w.machine().spec().device.dram_time(bytes), sim::Cat::kComm,
                    "checkpoint");
    store->put(t, pe, std::move(slice));
  };
  return join;
}

/// Per-PE groups of the single-kernel composition: comm groups first, then
/// inner groups, concatenated into one cooperative launch.
std::vector<cpufree::DeviceGroups> build_single_kernel_groups(
    const Program& P, vshmem::SignalSet* sigp,
    const ProgramExecParams& prm) {
  const IterationJoin join = checkpointing_join(P, prm);
  std::vector<cpufree::DeviceGroups> groups(
      static_cast<std::size_t>(P.n_pes));
  for (int dev = 0; dev < P.n_pes; ++dev) {
    ProgramGroups pg = P.groups(dev, sigp, join);
    auto& dg = groups[static_cast<std::size_t>(dev)];
    for (auto& g : pg.comm) dg.push_back(std::move(g));
    for (auto& g : pg.inner) dg.push_back(std::move(g));
  }
  return groups;
}

/// All kHostLoop compositions: allocate signals (signaled-put only), create
/// the per-device streams in device-major order, then drive the discrete
/// loop with the workload's step hook.
void run_host_driven(const Program& P, const Plan& plan,
                     const ProgramExecParams& prm) {
  vgpu::Machine& m = *P.machine;
  const int n = P.n_pes;
  if (plan.comm == CommPolicy::kPeerStore) m.enable_all_peer_access();
  std::unique_ptr<vshmem::SignalSet> sig;
  if (plan.comm == CommPolicy::kSignaledPut && P.signals) {
    sig = P.signals(*P.world);
  }
  std::vector<std::vector<vgpu::Stream*>> st(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    auto& dst = st[static_cast<std::size_t>(d)];
    for (int s = 0; s < P.streams_per_device; ++s) {
      dst.push_back(&m.device(P.world->device_of(d)).create_stream());
    }
  }
  vshmem::SignalSet* sigp = sig.get();
  host_loop(m, prm.iterations,
            [&P, &st, sigp](vgpu::HostCtx& h, int dev, int t) -> sim::Task {
              return P.host_step(
                  h, dev, t,
                  std::span<vgpu::Stream* const>(
                      st[static_cast<std::size_t>(dev)]),
                  sigp);
            },
            P.stop);
}

/// (kPersistent, kSignaledPut, kIterationFlags): one persistent cooperative
/// kernel per device for the entire run, groups joined by grid.sync().
void run_persistent_single(const Program& P, const Plan& plan,
                           const ProgramExecParams& prm) {
  std::unique_ptr<vshmem::SignalSet> sig;
  if (P.signals) sig = P.signals(*P.world);
  auto groups = build_single_kernel_groups(P, sig.get(), prm);
  persistent_launch(*P.machine, std::move(groups), prm.threads_per_block,
                    plan.kernel_name);
}

/// (kPersistentPair, kSignaledPut, kIterationFlags): two co-resident
/// persistent kernels per device in separate streams, synchronizing once
/// per iteration via local device-memory flags (the paper's "extra sync
/// point between the local pairs of streams").
void run_persistent_pair(const Program& P, const Plan& plan,
                         const ProgramExecParams& prm) {
  vgpu::Machine& m = *P.machine;
  vshmem::World& w = *P.world;
  const int n = P.n_pes;
  std::unique_ptr<vshmem::SignalSet> sig;
  if (P.signals) sig = P.signals(w);
  vshmem::SignalSet* sigp = sig.get();

  // Local per-device flags (device memory): iteration counters.
  std::deque<sim::Flag> inner_done;
  std::deque<sim::Flag> comm_done;
  // Named for hang reports unconditionally, and for an attached checker.
  const auto name = [&m](const sim::Flag& f, const std::string& nm) {
    m.engine().name_flag(&f, nm);
    if (sim::Observer* o = m.engine().observer()) o->on_flag_name(&f, nm);
  };
  for (int d = 0; d < n; ++d) {
    const std::string pe = std::to_string(d);
    name(inner_done.emplace_back(m.engine(), 0), "inner_done@pe" + pe);
    name(comm_done.emplace_back(m.engine(), 0), "comm_done@pe" + pe);
  }

  std::vector<vgpu::Stream*> comm_streams, comp_streams;
  for (int d = 0; d < n; ++d) {
    comm_streams.push_back(&m.device(w.device_of(d)).create_stream());
    comp_streams.push_back(&m.device(w.device_of(d)).create_stream());
  }

  m.run_host_threads([&P, &plan, &prm, &m, &w, sigp, &inner_done, &comm_done,
                      &comm_streams, &comp_streams](int dev) -> sim::Task {
    vgpu::HostCtx h(m, dev);
    sim::Flag* my_inner_done = &inner_done[static_cast<std::size_t>(dev)];
    sim::Flag* my_comm_done = &comm_done[static_cast<std::size_t>(dev)];

    // Comm groups join with grid.sync(), the lead group publishes "comm
    // done" for the kernel, then all handshake with the local inner kernel.
    IterationJoin join;
    join.comm_end = [my_inner_done, my_comm_done](
                        vgpu::KernelCtx& k, bool lead, int t) -> sim::Task {
      co_await k.grid_sync();
      if (lead) {
        my_comm_done->set(t);
        if (sim::Observer* o = k.engine().observer()) {
          o->on_signal_update(k.obs_actor(), my_comm_done, t, "comm_done");
        }
      }
      co_await local_pair_handshake(k, *my_inner_done, t, "inner_done");
    };
    // The inner kernel publishes "inner done" and handshakes back.
    join.inner_end = [my_inner_done, my_comm_done](vgpu::KernelCtx& k,
                                                   int t) -> sim::Task {
      my_inner_done->set(t);
      if (sim::Observer* o = k.engine().observer()) {
        o->on_signal_update(k.obs_actor(), my_inner_done, t, "inner_done");
      }
      co_await local_pair_handshake(k, *my_comm_done, t, "comm_done");
    };

    ProgramGroups pg = P.groups(dev, sigp, join);
    // Both kernels must be co-resident simultaneously.
    const vgpu::DeviceSpec& dev_spec = m.device(w.device_of(dev)).spec();
    const int limit = dev_spec.max_cooperative_blocks(prm.threads_per_block);
    const int total =
        vgpu::total_blocks(pg.comm) + vgpu::total_blocks(pg.inner);
    if (total > limit) {
      throw vgpu::CooperativeLaunchError(total, limit);
    }

    vgpu::LaunchConfig lc_comm;
    lc_comm.threads_per_block = prm.threads_per_block;
    lc_comm.cooperative = true;
    lc_comm.name = "cpu_free_comm";
    CO_AWAIT(h.launch(*comm_streams[static_cast<std::size_t>(dev)], lc_comm,
                      std::move(pg.comm)));

    vgpu::LaunchConfig lc_inner;
    lc_inner.threads_per_block = prm.threads_per_block;
    lc_inner.cooperative = true;
    lc_inner.name = "cpu_free_inner";
    CO_AWAIT(h.launch(*comp_streams[static_cast<std::size_t>(dev)], lc_inner,
                      std::move(pg.inner)));

    vgpu::Stream* const streams[] = {
        comm_streams[static_cast<std::size_t>(dev)],
        comp_streams[static_cast<std::size_t>(dev)]};
    co_await end_host_step(h, plan.sync, streams);
  });
}

}  // namespace

void run_program(const Program& program, const Plan& plan,
                 const ProgramExecParams& params) {
  if (!valid(plan)) {
    throw std::invalid_argument(invalid_plan_message("run_program", plan));
  }
  switch (plan.launch) {
    case LaunchPolicy::kHostLoop:
      run_host_driven(program, plan, params);
      break;
    case LaunchPolicy::kPersistent:
      run_persistent_single(program, plan, params);
      break;
    case LaunchPolicy::kPersistentPair:
      run_persistent_pair(program, plan, params);
      break;
  }
}

sim::Task run_program_persistent_task(const Program& program, const Plan& plan,
                                      const ProgramExecParams& params) {
  if (!valid(plan)) {
    throw std::invalid_argument(
        invalid_plan_message("run_program_persistent_task", plan));
  }
  if (plan.launch != LaunchPolicy::kPersistent) {
    std::string msg =
        "run_program_persistent_task: launch: plan must be a kPersistent "
        "composition (got ";
    msg += name(plan.launch);
    msg += ')';
    throw std::invalid_argument(msg);
  }
  vshmem::World& w = *program.world;
  // World-owned, not frame-owned: signaled-put protocols typically signal
  // iteration t+1 after their last step, so the final put_signal is still
  // in flight (unconsumed) when the kernels sync and this coroutine's frame
  // dies. Its delivery callback must find live flags.
  vshmem::SignalSet* sigp =
      program.signals ? w.retain_signals(program.signals(w)) : nullptr;
  auto groups = build_single_kernel_groups(program, sigp, params);
  std::vector<int> devices;
  devices.reserve(static_cast<std::size_t>(program.n_pes));
  for (int pe = 0; pe < program.n_pes; ++pe) {
    devices.push_back(w.device_of(pe));
  }
  cpufree::PersistentConfig pc;
  pc.threads_per_block = params.threads_per_block;
  pc.name = plan.kernel_name;
  pc.job_map = params.job_map;
  pc.job_label = params.job_label;
  co_await cpufree::persistent_launch_task(*program.machine,
                                           std::move(devices),
                                           std::move(groups), pc);
}

}  // namespace exec
