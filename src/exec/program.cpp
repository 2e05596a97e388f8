// run_program(): the workload-agnostic composition driver. Owns everything
// the (launch, comm, sync) Plan implies — peer-access enablement, signal
// allocation, the host loop or the persistent kernels (launched by
// cpufree::spawn_persistent, the one persistent launcher), and the
// per-iteration join protocol — in one fixed resource-creation order
// (signals, then streams or kernels), which every workload's metric traces
// depend on.
#include "exec/program.hpp"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpufree/launch.hpp"
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

/// The single-kernel composition: each PE's comm groups, then its inner
/// groups, in one cooperative kernel joined by grid.sync().
std::vector<cpufree::DeviceKernels> single_kernels(
    const Program& P, const Plan& plan, vshmem::SignalSet* sigp,
    const ProgramExecParams& prm) {
  const IterationJoin join = checkpointing_join(P, prm);
  std::vector<cpufree::DeviceKernels> kernels(
      static_cast<std::size_t>(P.n_pes));
  for (int pe = 0; pe < P.n_pes; ++pe) {
    ProgramGroups pg = P.groups(pe, sigp, join);
    cpufree::PersistentKernel& k =
        kernels[static_cast<std::size_t>(pe)].emplace_back();
    k.name = plan.kernel_name;
    k.groups = std::move(pg.comm);
    for (auto& g : pg.inner) k.groups.push_back(std::move(g));
  }
  return kernels;
}

/// One PE's local iteration counters of the two-kernel composition
/// (device memory, one per kernel), forgotten when the last kernel holding
/// them is gone.
struct PairFlags {
  explicit PairFlags(sim::Engine& e)
      : engine(&e), inner_done(e, 0), comm_done(e, 0) {}
  PairFlags(const PairFlags&) = delete;
  PairFlags& operator=(const PairFlags&) = delete;
  ~PairFlags() {
    engine->forget(&inner_done);
    engine->forget(&comm_done);
  }
  sim::Engine* engine;
  sim::Flag inner_done;
  sim::Flag comm_done;
};

/// The two-kernel composition: each PE's comm groups and inner groups as
/// two co-resident kernels in separate streams, synchronizing once per
/// iteration via local device-memory flags (the paper's "extra sync point
/// between the local pairs of streams"). The join callbacks own the flags:
/// the launch returns before the kernels run.
std::vector<cpufree::DeviceKernels> pair_kernels(const Program& P,
                                                 vshmem::SignalSet* sigp) {
  sim::Engine& eng = P.machine->engine();
  // Named for hang reports unconditionally, and for an attached checker.
  const auto name = [&eng](const sim::Flag& f, const std::string& nm) {
    eng.name_flag(&f, nm);
    if (sim::Observer* o = eng.observer()) o->on_flag_name(&f, nm);
  };
  std::vector<std::shared_ptr<PairFlags>> flags;
  for (int pe = 0; pe < P.n_pes; ++pe) {
    const std::string id = std::to_string(pe);
    flags.push_back(std::make_shared<PairFlags>(eng));
    name(flags.back()->inner_done, "inner_done@pe" + id);
    name(flags.back()->comm_done, "comm_done@pe" + id);
  }
  std::vector<cpufree::DeviceKernels> kernels(
      static_cast<std::size_t>(P.n_pes));
  for (int pe = 0; pe < P.n_pes; ++pe) {
    const std::shared_ptr<PairFlags>& f = flags[static_cast<std::size_t>(pe)];
    // Comm groups join with grid.sync(), the lead group publishes "comm
    // done" for the kernel, then all handshake with the local inner kernel.
    IterationJoin join;
    join.comm_end = [f](vgpu::KernelCtx& k, bool lead, int t) -> sim::Task {
      co_await k.grid_sync();
      if (lead) {
        f->comm_done.set(t);
        if (sim::Observer* o = k.engine().observer()) {
          o->on_signal_update(k.obs_actor(), &f->comm_done, t, "comm_done");
        }
      }
      co_await local_pair_handshake(k, f->inner_done, t, "inner_done");
    };
    // The inner kernel publishes "inner done" and handshakes back.
    join.inner_end = [f](vgpu::KernelCtx& k, int t) -> sim::Task {
      f->inner_done.set(t);
      if (sim::Observer* o = k.engine().observer()) {
        o->on_signal_update(k.obs_actor(), &f->inner_done, t, "inner_done");
      }
      co_await local_pair_handshake(k, f->comm_done, t, "comm_done");
    };
    ProgramGroups pg = P.groups(pe, sigp, join);
    cpufree::DeviceKernels& dk = kernels[static_cast<std::size_t>(pe)];
    dk.push_back(cpufree::PersistentKernel{"cpu_free_comm", std::move(pg.comm)});
    dk.push_back(
        cpufree::PersistentKernel{"cpu_free_inner", std::move(pg.inner)});
  }
  return kernels;
}

/// Both persistent compositions, in resource-creation order: signals (kept
/// by the world, since a final put_signal may still be in flight when the
/// kernels sync), then every PE's kernels, then the launch on the world's
/// devices. Returns the launch's count of finished devices.
std::shared_ptr<sim::Flag> spawn_program(const Program& P, const Plan& plan,
                                         const ProgramExecParams& prm) {
  vshmem::World& w = *P.world;
  vshmem::SignalSet* sigp =
      P.signals ? w.retain_signals(P.signals(w)) : nullptr;
  std::vector<cpufree::DeviceKernels> kernels =
      plan.launch == LaunchPolicy::kPersistentPair
          ? pair_kernels(P, sigp)
          : single_kernels(P, plan, sigp, prm);
  std::vector<int> devices;
  for (int pe = 0; pe < P.n_pes; ++pe) devices.push_back(w.device_of(pe));
  return cpufree::spawn_persistent(
      *P.machine, devices,
      [&w](std::size_t pe) -> vgpu::Stream& {
        return w.create_stream(static_cast<int>(pe));
      },
      std::move(kernels), prm.threads_per_block);
}

/// All kHostLoop compositions: allocate signals (signaled-put only), create
/// the per-device streams in device-major order, then run one host thread
/// per device that issues the workload's step for t = 1..iterations. The
/// optional `stop` hook is consulted before each step.
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
      dst.push_back(&P.world->create_stream(d));
    }
  }
  vshmem::SignalSet* sigp = sig.get();
  m.run_host_threads([&m, &P, &prm, &st, sigp](int dev) -> sim::Task {
    vgpu::HostCtx h(m, dev);
    const std::span<vgpu::Stream* const> streams(
        st[static_cast<std::size_t>(dev)]);
    for (int t = 1; t <= prm.iterations; ++t) {
      if (P.stop && P.stop(dev)) co_return;
      CO_AWAIT(P.host_step(h, dev, t, streams, sigp));
    }
  });
}

}  // namespace

void run_program(const Program& program, const Plan& plan,
                 const ProgramExecParams& params) {
  if (!valid(plan)) {
    throw std::invalid_argument(invalid_plan_message("run_program", plan));
  }
  if (plan.launch == LaunchPolicy::kHostLoop) {
    // One host thread per machine device drives the PE of the same index.
    const int n = program.machine->num_devices();
    bool whole = program.n_pes == n;
    for (int pe = 0; whole && pe < n; ++pe) {
      whole = program.world->device_of(pe) == pe;
    }
    if (!whole) {
      throw std::invalid_argument(
          "run_program: launch: host_loop needs the whole-machine world, PE "
          "i on device i (got " + std::to_string(program.n_pes) +
          " PEs on " + std::to_string(n) + " devices)");
    }
    run_host_driven(program, plan, params);
    return;
  }
  static_cast<void>(spawn_program(program, plan, params));
  program.machine->engine().run();
}

sim::Task run_program_persistent_task(const Program& program, const Plan& plan,
                                      const ProgramExecParams& params) {
  if (!valid(plan)) {
    throw std::invalid_argument(
        invalid_plan_message("run_program_persistent_task", plan));
  }
  if (plan.launch == LaunchPolicy::kHostLoop) {
    throw std::invalid_argument(
        "run_program_persistent_task: launch: host_loop plans drive the "
        "engine themselves and cannot be spawned");
  }
  const std::shared_ptr<sim::Flag> done = spawn_program(program, plan, params);
  co_await done->wait_geq(program.n_pes);
}

}  // namespace exec
