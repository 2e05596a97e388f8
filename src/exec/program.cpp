// run_program(): the workload-agnostic composition driver. Owns everything
// the (launch, comm, sync) Plan implies — peer-access enablement, the host
// loop and its streams, the one persistent launcher (one cooperative launch
// per kernel per device, one sync at the end: the whole CPU-Free host
// program, §3.1.1), and the per-iteration join protocol — in one fixed
// resource-creation order (pair flags, then streams, then launches), which
// every workload's metric traces depend on. Workloads that signal allocate
// their signals before any of it.
#include "exec/program.hpp"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/sync.hpp"
#include "sim/sync.hpp"

namespace exec {

namespace {

/// One cooperative kernel of a persistent launch. `name` labels it in
/// traces (a view: must outlive the run).
struct PersistentKernel {
  std::string_view name;
  std::vector<vgpu::BlockGroup> groups;
};

/// The kernels one PE runs, launched in this order, one stream each.
using PeKernels = std::vector<PersistentKernel>;

/// One device's host thread: launch every kernel, then sync every stream
/// once — the CPU is free in between — and count the device as finished.
sim::Task persistent_host(vgpu::Machine& machine, int device,
                          std::vector<vgpu::Stream*> streams,
                          PeKernels kernels, int threads_per_block,
                          std::shared_ptr<sim::Flag> done) {
  vgpu::HostCtx host(machine, device);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    vgpu::LaunchConfig lc;
    lc.threads_per_block = threads_per_block;
    lc.cooperative = true;
    lc.name = kernels[i].name;
    CO_AWAIT(host.launch(*streams[i], lc, std::move(kernels[i].groups)));
  }
  for (vgpu::Stream* s : streams) co_await host.sync_stream(*s);
  done->add(1);
}

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
IterationJoin checkpointing_join(const Program& P) {
  IterationJoin join = grid_only_join();
  if (P.checkpoints == nullptr || P.checkpoints->every <= 0 || !P.capture) {
    return join;
  }
  join.comm_end = [Pp = &P](vgpu::KernelCtx& k, bool lead,
                            int t) -> sim::Task {
    co_await k.grid_sync();
    CheckpointStore& store = *Pp->checkpoints;
    if (!lead || t % store.every != 0 || t >= Pp->iterations) co_return;
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
    store.put(t, pe, std::move(slice));
  };
  return join;
}

/// The single-kernel composition: each PE's comm groups, then its inner
/// groups, in one cooperative kernel joined by grid.sync().
std::vector<PeKernels> single_kernels(const Program& P) {
  const IterationJoin join = checkpointing_join(P);
  const int n = P.world->n_pes();
  std::vector<PeKernels> kernels(static_cast<std::size_t>(n));
  for (int pe = 0; pe < n; ++pe) {
    ProgramGroups pg = P.groups(pe, join);
    PersistentKernel& k = kernels[static_cast<std::size_t>(pe)].emplace_back();
    k.name = P.plan.kernel_name;
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
std::vector<PeKernels> pair_kernels(const Program& P) {
  sim::Engine& eng = P.world->machine().engine();
  const int n = P.world->n_pes();
  std::vector<std::shared_ptr<PairFlags>> flags;
  for (int pe = 0; pe < n; ++pe) {
    const std::string id = std::to_string(pe);
    flags.push_back(std::make_shared<PairFlags>(eng));
    eng.name_flag(&flags.back()->inner_done, "inner_done@pe" + id);
    eng.name_flag(&flags.back()->comm_done, "comm_done@pe" + id);
  }
  std::vector<PeKernels> kernels(static_cast<std::size_t>(n));
  for (int pe = 0; pe < n; ++pe) {
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
    ProgramGroups pg = P.groups(pe, join);
    PeKernels& pk = kernels[static_cast<std::size_t>(pe)];
    pk.push_back(PersistentKernel{"cpu_free_comm", std::move(pg.comm)});
    pk.push_back(PersistentKernel{"cpu_free_inner", std::move(pg.inner)});
  }
  return kernels;
}

/// The one persistent launcher, behind both persistent compositions. It
/// builds every PE's kernels (pair flags first), takes one stream per
/// kernel from World::create_stream up front in PE-major order, so lanes
/// are assigned deterministically and the world releases them, and spawns
/// one host coroutine per device. Kernels of one device run concurrently,
/// so their blocks together must be co-resident: a device with several
/// kernels is checked against the cooperative cap before any launch (a
/// lone kernel is checked when it starts). Returns a flag counting the
/// devices whose host has synced every stream; the caller drives the engine
/// or awaits the flag.
std::shared_ptr<sim::Flag> spawn_program(const Program& P) {
  vshmem::World& w = *P.world;
  vgpu::Machine& m = w.machine();
  const auto n = static_cast<std::size_t>(w.n_pes());
  std::vector<PeKernels> kernels =
      P.plan.launch == LaunchPolicy::kPersistentPair ? pair_kernels(P)
                                                     : single_kernels(P);
  for (std::size_t pe = 0; pe < n; ++pe) {
    if (kernels[pe].size() < 2) continue;
    int blocks = 0;
    for (const PersistentKernel& k : kernels[pe]) {
      blocks += vgpu::total_blocks(k.groups);
    }
    const int limit = m.device(w.device_of(static_cast<int>(pe)))
                          .spec()
                          .max_cooperative_blocks(P.threads_per_block);
    if (blocks > limit) throw vgpu::CooperativeLaunchError(blocks, limit);
  }
  std::vector<std::vector<vgpu::Stream*>> streams(n);
  for (std::size_t pe = 0; pe < n; ++pe) {
    for (std::size_t k = 0; k < kernels[pe].size(); ++k) {
      streams[pe].push_back(&w.create_stream(static_cast<int>(pe)));
    }
  }
  auto done = std::make_shared<sim::Flag>(m.engine(), 0);
  for (std::size_t pe = 0; pe < n; ++pe) {
    m.engine().spawn(persistent_host(
        m, w.device_of(static_cast<int>(pe)), std::move(streams[pe]),
        std::move(kernels[pe]), P.threads_per_block, done));
  }
  return done;
}

/// All kHostLoop compositions: create the per-device streams in
/// device-major order (two under kOverlapStreams, else one), then run one
/// host thread per device that issues the workload's step for
/// t = 1..iterations.
void run_host_driven(const Program& P) {
  vgpu::Machine& m = P.world->machine();
  const int n = P.world->n_pes();
  if (P.plan.comm == CommPolicy::kPeerStore) m.enable_all_peer_access();
  const int per_device = P.plan.comm == CommPolicy::kOverlapStreams ? 2 : 1;
  std::vector<std::vector<vgpu::Stream*>> st(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    auto& dst = st[static_cast<std::size_t>(d)];
    for (int s = 0; s < per_device; ++s) {
      dst.push_back(&P.world->create_stream(d));
    }
  }
  m.run_host_threads([&m, &P, &st](int dev) -> sim::Task {
    vgpu::HostCtx h(m, dev);
    const std::span<vgpu::Stream* const> streams(
        st[static_cast<std::size_t>(dev)]);
    for (int t = 1; t <= P.iterations; ++t) {
      CO_AWAIT(P.host_step(h, dev, t, streams));
    }
  });
}

/// `fn` rejects a program without the hook its plan uses: a default Plan
/// is a valid host loop, so a program whose plan was left unset would
/// otherwise call a null host_step.
void require_hook(std::string_view fn, const Program& P) {
  const bool host = P.plan.launch == LaunchPolicy::kHostLoop;
  if (host ? P.host_step != nullptr : P.groups != nullptr) return;
  std::string msg(fn);
  msg += ": launch: ";
  msg += name(P.plan.launch);
  msg += host ? " needs the host_step hook" : " needs the groups hook";
  throw std::invalid_argument(msg);
}

}  // namespace

void run_program(const Program& program) {
  const Plan& plan = program.plan;
  if (!valid(plan)) {
    throw std::invalid_argument(invalid_plan_message("run_program", plan));
  }
  require_hook("run_program", program);
  vshmem::World& w = *program.world;
  if (plan.launch == LaunchPolicy::kHostLoop) {
    // One host thread per machine device drives the PE of the same index.
    const int n = w.machine().num_devices();
    bool whole = w.n_pes() == n;
    for (int pe = 0; whole && pe < n; ++pe) whole = w.device_of(pe) == pe;
    if (!whole) {
      throw std::invalid_argument(
          "run_program: launch: host_loop needs the whole-machine world, PE "
          "i on device i (got " + std::to_string(w.n_pes()) + " PEs on " +
          std::to_string(n) + " devices)");
    }
    run_host_driven(program);
    return;
  }
  static_cast<void>(spawn_program(program));
  w.machine().engine().run();
}

sim::Task run_program_persistent_task(const Program& program) {
  const Plan& plan = program.plan;
  if (!valid(plan)) {
    throw std::invalid_argument(
        invalid_plan_message("run_program_persistent_task", plan));
  }
  if (plan.launch == LaunchPolicy::kHostLoop) {
    throw std::invalid_argument(
        "run_program_persistent_task: launch: host_loop plans drive the "
        "engine themselves and cannot be spawned");
  }
  require_hook("run_program_persistent_task", program);
  const std::shared_ptr<sim::Flag> done = spawn_program(program);
  co_await done->wait_geq(program.world->n_pes());
}

void check_mode(std::string_view fn, const RunOptions& options,
                const vshmem::World& world) {
  if (options.functional == world.functional()) return;
  std::string msg(fn);
  msg += ": the config's functional is ";
  msg += options.functional ? "true" : "false";
  msg += " but the World's is ";
  msg += world.functional() ? "true" : "false";
  throw std::invalid_argument(msg);
}

}  // namespace exec
