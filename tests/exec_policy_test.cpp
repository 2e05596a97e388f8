// Tests for the execution-policy layer: the plan vocabulary (validity rules,
// variant mapping, persistent-block resolution) and the end-to-end guarantee
// the refactor rests on — every stencil variant is a policy composition over
// the SAME numerics, so all seven produce bit-identical grids on the same
// problem.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "sim/observe.hpp"
#include "stencil/problems.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "vshmem/world.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

using exec::CommPolicy;
using exec::LaunchPolicy;
using exec::Plan;
using exec::SyncPolicy;
using stencil::Variant;

constexpr Variant kAllSeven[] = {
    Variant::kBaselineCopy,    Variant::kBaselineOverlap,
    Variant::kBaselineP2P,     Variant::kBaselineNvshmem,
    Variant::kCpuFree,         Variant::kCpuFreePerks,
    Variant::kCpuFreeTwoKernels};

TEST(ResolvePersistentBlocks, ExplicitWinsDefaultDerivesFromSmCount) {
  const vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  EXPECT_EQ(exec::resolve_persistent_blocks(12, spec), 12);
  EXPECT_EQ(exec::resolve_persistent_blocks(0, spec), spec.device.sm_count);
  vgpu::MachineSpec other = spec;
  other.device.sm_count = 56;  // e.g. a V100-sized part
  EXPECT_EQ(exec::resolve_persistent_blocks(0, other), 56);
  EXPECT_EQ(exec::resolve_persistent_blocks(-1, other), 56);
}

TEST(PlanValidity, PersistentLaunchNeedsDeviceSideCommAndSync) {
  EXPECT_TRUE(valid(Plan{LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
                         SyncPolicy::kIterationFlags}));
  EXPECT_TRUE(valid(Plan{LaunchPolicy::kPersistentPair,
                         CommPolicy::kSignaledPut,
                         SyncPolicy::kIterationFlags}));
  EXPECT_FALSE(valid(Plan{LaunchPolicy::kPersistent, CommPolicy::kStagedCopy,
                          SyncPolicy::kIterationFlags}));
  EXPECT_FALSE(valid(Plan{LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
                          SyncPolicy::kHostBarrier}));
}

TEST(PlanValidity, HostLoopCommSyncPairings) {
  // Host-initiated (or unsignalled) comm must be fenced by a host barrier.
  for (CommPolicy c : {CommPolicy::kStagedCopy, CommPolicy::kOverlapStreams,
                       CommPolicy::kPeerStore}) {
    EXPECT_TRUE(valid(Plan{LaunchPolicy::kHostLoop, c,
                           SyncPolicy::kHostBarrier}));
    EXPECT_FALSE(valid(Plan{LaunchPolicy::kHostLoop, c,
                            SyncPolicy::kStreamSync}));
    EXPECT_FALSE(valid(Plan{LaunchPolicy::kHostLoop, c,
                            SyncPolicy::kIterationFlags}));
  }
  // Signalled puts carry their own arrival notification.
  EXPECT_TRUE(valid(Plan{LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
                         SyncPolicy::kStreamSync}));
  EXPECT_TRUE(valid(Plan{LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
                         SyncPolicy::kIterationFlags}));
  EXPECT_FALSE(valid(Plan{LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
                          SyncPolicy::kHostBarrier}));
}

TEST(PlanMapping, EverySeedVariantIsAValidComposition) {
  for (Variant v : kAllSeven) {
    EXPECT_TRUE(valid(stencil::plan_for(v))) << stencil::variant_name(v);
  }
}

TEST(PlanMapping, TriplesMatchThePaperTable) {
  const Plan copy = stencil::plan_for(Variant::kBaselineCopy);
  EXPECT_EQ(copy.launch, LaunchPolicy::kHostLoop);
  EXPECT_EQ(copy.comm, CommPolicy::kStagedCopy);
  EXPECT_EQ(copy.sync, SyncPolicy::kHostBarrier);

  const Plan overlap = stencil::plan_for(Variant::kBaselineOverlap);
  EXPECT_EQ(overlap.comm, CommPolicy::kOverlapStreams);

  const Plan p2p = stencil::plan_for(Variant::kBaselineP2P);
  EXPECT_EQ(p2p.comm, CommPolicy::kPeerStore);
  EXPECT_EQ(p2p.sync, SyncPolicy::kHostBarrier);

  const Plan nvshmem = stencil::plan_for(Variant::kBaselineNvshmem);
  EXPECT_EQ(nvshmem.launch, LaunchPolicy::kHostLoop);
  EXPECT_EQ(nvshmem.comm, CommPolicy::kSignaledPut);
  EXPECT_EQ(nvshmem.sync, SyncPolicy::kStreamSync);

  const Plan cpu_free = stencil::plan_for(Variant::kCpuFree);
  EXPECT_EQ(cpu_free.launch, LaunchPolicy::kPersistent);
  EXPECT_EQ(cpu_free.comm, CommPolicy::kSignaledPut);
  EXPECT_EQ(cpu_free.sync, SyncPolicy::kIterationFlags);

  const Plan perks = stencil::plan_for(Variant::kCpuFreePerks);
  EXPECT_EQ(perks.launch, LaunchPolicy::kPersistent);
  EXPECT_EQ(perks.kernel_name, "cpu_free_perks");

  const Plan pair = stencil::plan_for(Variant::kCpuFreeTwoKernels);
  EXPECT_EQ(pair.launch, LaunchPolicy::kPersistentPair);
  EXPECT_EQ(pair.comm, CommPolicy::kSignaledPut);
  EXPECT_EQ(pair.sync, SyncPolicy::kIterationFlags);
}

TEST(PolicyNames, AreStable) {
  EXPECT_EQ(exec::name(LaunchPolicy::kHostLoop), "host_loop");
  EXPECT_EQ(exec::name(LaunchPolicy::kPersistentPair), "persistent_pair");
  EXPECT_EQ(exec::name(CommPolicy::kOverlapStreams), "overlap_streams");
  EXPECT_EQ(exec::name(CommPolicy::kSignaledPut), "signaled_put");
  EXPECT_EQ(exec::name(SyncPolicy::kIterationFlags), "iteration_flags");
}

// ---- The refactor's core guarantee ----------------------------------------

/// Runs one variant on a fresh machine and gathers the final grid.
std::vector<double> final_grid(Variant v, int devices, int iters) {
  vgpu::Machine m(vgpu::MachineSpec::hgx_a100(devices));
  vshmem::World w(m);
  stencil::Jacobi2D prob;
  prob.nx = 24;
  prob.ny = 24;
  stencil::StencilConfig cfg;
  cfg.iterations = iters;
  cfg.persistent_blocks = 12;  // small domain: few co-resident blocks
  stencil::SlabStencil<stencil::Jacobi2D> S(w, prob, cfg);
  const stencil::StencilResult r = stencil::run_variant(S, v);
  return S.gather(r.final_parity);
}

TEST(PolicyComposition, AllSevenVariantsProduceBitIdenticalGrids) {
  for (int devices : {2, 4}) {
    for (int iters : {2, 5}) {
      const std::vector<double> ref =
          final_grid(Variant::kBaselineCopy, devices, iters);
      ASSERT_FALSE(ref.empty());
      for (Variant v : kAllSeven) {
        const std::vector<double> got = final_grid(v, devices, iters);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(got[i], ref[i])
              << stencil::variant_name(v) << " devices=" << devices
              << " iters=" << iters << " differs at point " << i;
        }
      }
    }
  }
}

// ---- Persistent runs on a device slice --------------------------------------

/// A 64x64 Jacobi2D for 6 iterations on devices {2, 3} of a 4-GPU node,
/// driven to completion by run_program or spawned as
/// run_program_persistent_task on an engine the test runs. Returns the final
/// grid and its reference.
std::pair<std::vector<double>, std::vector<double>> slice_run(Variant v,
                                                              bool spawned) {
  vgpu::Machine m(vgpu::MachineSpec::hgx_a100(4));
  vshmem::World w(m, {2, 3}, "slice.");
  stencil::Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  stencil::StencilConfig cfg;
  cfg.iterations = 6;
  stencil::SlabStencil<stencil::Jacobi2D> S(w, prob, cfg);
  const exec::Program prog = stencil::make_slab_program(S, v);
  if (spawned) {
    m.engine().spawn(exec::run_program_persistent_task(prog));
    m.engine().run();
  } else {
    exec::run_program(prog);
  }
  return {S.gather(cfg.iterations & 1), S.reference(cfg.iterations)};
}

TEST(PersistentSlice, BothPlansRunOnADeviceSliceBothWays) {
  for (Variant v : {Variant::kCpuFree, Variant::kCpuFreeTwoKernels}) {
    for (bool spawned : {false, true}) {
      const auto [got, ref] = slice_run(v, spawned);
      EXPECT_EQ(got, ref) << stencil::variant_name(v)
                          << (spawned ? " spawned" : " run to completion");
    }
  }
}

/// Counts the flags and memory blocks created while it is attached.
struct CreationCounter : sim::Observer {
  void on_mem_block(const void*, std::size_t, std::string_view) override {
    ++created;
  }
  void on_flag_name(const void*, std::string_view) override { ++created; }
  int created = 0;
};

TEST(HostLoopSlice, RejectedBeforeAnythingIsCreated) {
  // A host loop runs one host thread per machine device, so on devices
  // {0, 1} of a 4-GPU node it would index past the slice's PEs. run_program
  // rejects every host-loop variant there, naming the launch policy, before
  // it names a flag, allocates device memory or creates a stream.
  for (Variant v : {Variant::kBaselineCopy, Variant::kBaselineOverlap,
                    Variant::kBaselineP2P, Variant::kBaselineNvshmem}) {
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(4));
    vshmem::World w(m, {0, 1}, "slice.");
    stencil::Jacobi2D prob;
    prob.nx = 64;
    prob.ny = 64;
    stencil::StencilConfig cfg;
    cfg.iterations = 2;
    stencil::SlabStencil<stencil::Jacobi2D> S(w, prob, cfg);
    const exec::Program prog = stencil::make_slab_program(S, v);
    CreationCounter counter;
    m.engine().set_observer(&counter);
    const std::size_t bytes = m.live_bytes();
    try {
      exec::run_program(prog);
      ADD_FAILURE() << stencil::variant_name(v) << " ran on a slice";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("run_program: launch: host_loop"),
                std::string::npos)
          << e.what();
    }
    m.engine().set_observer(nullptr);
    EXPECT_EQ(counter.created, 0) << stencil::variant_name(v);
    EXPECT_EQ(m.live_bytes(), bytes) << stencil::variant_name(v);
    for (int d = 0; d < m.num_devices(); ++d) {
      EXPECT_EQ(m.device(d).stream_count(), 0u) << stencil::variant_name(v);
    }
  }
}

// ---- Resource creation order --------------------------------------------------

/// Records, in order, the flag and memory-block names published while it is
/// attached, and the streams each device enqueued work on. Given the
/// machine, it marks a name published after a stream exists.
struct CreationLog : sim::Observer {
  void on_mem_block(const void*, std::size_t, std::string_view name) override {
    names.push_back("mem " + std::string(name) + after_streams());
  }
  void on_flag_name(const void*, std::string_view name) override {
    names.push_back("flag " + std::string(name) + after_streams());
  }
  void on_stream_enqueue(const sim::Actor&, const sim::Actor& stream,
                         std::int64_t) override {
    lanes.emplace(stream.a, stream.b);
  }
  std::string after_streams() const {
    if (machine == nullptr) return {};
    for (int d = 0; d < machine->num_devices(); ++d) {
      if (machine->device(d).stream_count() != 0) return " (after a stream)";
    }
    return {};
  }
  vgpu::Machine* machine = nullptr;
  std::vector<std::string> names;
  std::set<std::pair<std::int32_t, std::int32_t>> lanes;  // (device, lane)
};

/// `kind label+name@pe<i>` for every PE i < n.
void append_per_pe(std::vector<std::string>& out, std::string_view kind,
                   const std::string& name, int n) {
  for (int pe = 0; pe < n; ++pe) {
    out.push_back(std::string(kind) + ' ' + name + "@pe" + std::to_string(pe));
  }
}

/// The names World::alloc_signals gives `count` signals on n PEs, PE-major.
void append_signals(std::vector<std::string>& out, const std::string& label,
                    int count, int n) {
  for (int pe = 0; pe < n; ++pe) {
    for (int i = 0; i < count; ++i) {
      out.push_back("flag " + label + "sig" + std::to_string(i) + "@pe" +
                    std::to_string(pe));
    }
  }
}

/// The two-kernel composition's local iteration counters, named per PE.
void append_pair_flags(std::vector<std::string>& out, int n) {
  for (int pe = 0; pe < n; ++pe) {
    out.push_back("flag inner_done@pe" + std::to_string(pe));
    out.push_back("flag comm_done@pe" + std::to_string(pe));
  }
}

/// What a 64x64 Jacobi2D names, in creation order, from its World through
/// the run: the nbi-completion flags, the two slab buffers, the four halo
/// signals per PE when the plan signals, and the two-kernel design's pair
/// flags.
std::vector<std::string> stencil_names(Variant v, const std::string& label,
                                       int n) {
  const Plan plan = stencil::plan_for(v);
  std::vector<std::string> e;
  append_per_pe(e, "flag", label + "nbi_completed", n);
  append_per_pe(e, "mem", label + "u0", n);
  append_per_pe(e, "mem", label + "u1", n);
  if (plan.comm == CommPolicy::kSignaledPut) append_signals(e, label, 4, n);
  if (plan.launch == LaunchPolicy::kPersistentPair) append_pair_flags(e, n);
  return e;
}

struct Creation {
  std::vector<std::string> names;
  std::vector<std::size_t> streams;  // per device, read while the World lives
};

/// Builds and runs `v` with a CreationLog attached before its World exists:
/// on the whole of hgx_a100(4) through run_program, or spawned on devices
/// {2, 3}.
Creation stencil_creation(Variant v, bool slice) {
  CreationLog log;
  vgpu::Machine m(vgpu::MachineSpec::hgx_a100(4));
  log.machine = &m;
  m.engine().set_observer(&log);
  const auto w = slice ? std::make_unique<vshmem::World>(
                             m, std::vector<int>{2, 3}, "slice.")
                       : std::make_unique<vshmem::World>(m);
  stencil::Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  stencil::StencilConfig cfg;
  cfg.iterations = 2;
  cfg.persistent_blocks = 12;
  stencil::SlabStencil<stencil::Jacobi2D> S(*w, prob, cfg);
  const exec::Program prog = stencil::make_slab_program(S, v);
  if (slice) {
    m.engine().spawn(exec::run_program_persistent_task(prog));
    m.engine().run();
  } else {
    exec::run_program(prog);
  }
  Creation c{log.names, {}};
  for (int d = 0; d < m.num_devices(); ++d) {
    c.streams.push_back(m.device(d).stream_count());
  }
  return c;
}

/// Streams per device a plan runs on: two for overlapping copies or a
/// kernel pair, else one.
std::size_t streams_for(const Plan& plan) {
  return plan.comm == CommPolicy::kOverlapStreams ||
                 plan.launch == LaunchPolicy::kPersistentPair
             ? 2
             : 1;
}

TEST(CreationOrder, StencilVariantsOnTheWholeMachine) {
  for (Variant v : kAllSeven) {
    const Creation c = stencil_creation(v, /*slice=*/false);
    EXPECT_EQ(c.names, stencil_names(v, "", 4)) << stencil::variant_name(v);
    const std::vector<std::size_t> want(4, streams_for(stencil::plan_for(v)));
    EXPECT_EQ(c.streams, want) << stencil::variant_name(v);
  }
}

TEST(CreationOrder, PersistentVariantsSpawnedOnASlice) {
  for (Variant v : {Variant::kCpuFree, Variant::kCpuFreePerks,
                    Variant::kCpuFreeTwoKernels}) {
    const Creation c = stencil_creation(v, /*slice=*/true);
    EXPECT_EQ(c.names, stencil_names(v, "slice.", 2))
        << stencil::variant_name(v);
    const std::size_t k = streams_for(stencil::plan_for(v));
    const std::vector<std::size_t> want{0, 0, k, k};
    EXPECT_EQ(c.streams, want) << stencil::variant_name(v);
  }
}

TEST(CreationOrder, HistogramUnderEveryTriple) {
  const Plan plans[] = {
      {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
       SyncPolicy::kHostBarrier, "hist"},
      {LaunchPolicy::kHostLoop, CommPolicy::kOverlapStreams,
       SyncPolicy::kHostBarrier, "hist"},
      {LaunchPolicy::kHostLoop, CommPolicy::kPeerStore,
       SyncPolicy::kHostBarrier, "hist_p2p"},
      {LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
       SyncPolicy::kStreamSync, "hist_nvshmem"},
      {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
       SyncPolicy::kIterationFlags, "hist_cpufree"},
      {LaunchPolicy::kPersistentPair, CommPolicy::kSignaledPut,
       SyncPolicy::kIterationFlags, "hist_cpufree"},
  };
  constexpr int kDevices = 4;
  for (const Plan& plan : plans) {
    // The histogram names its World, bins, transfer rows and 2n signals per
    // PE whatever the plan; the run adds only the pair flags.
    std::vector<std::string> names;
    append_per_pe(names, "flag", "nbi_completed", kDevices);
    append_per_pe(names, "mem", "hist_bins", kDevices);
    append_per_pe(names, "mem", "hist_xfer", kDevices);
    append_signals(names, "", 2 * kDevices, kDevices);
    if (plan.launch == LaunchPolicy::kPersistentPair) {
      append_pair_flags(names, kDevices);
    }
    const std::string what = std::string(exec::name(plan.launch)) + '/' +
                             std::string(exec::name(plan.comm));
    CreationLog log;
    workloads::HistogramConfig cfg;
    cfg.bins = 97;
    cfg.keys_per_round = 64;
    cfg.rounds = 2;
    cfg.threads_per_block = 128;
    cfg.persistent_blocks = 8;
    cfg.observer = &log;
    static_cast<void>(
        workloads::run_histogram(vgpu::MachineSpec::hgx_a100(kDevices), cfg,
                                 plan));
    EXPECT_EQ(log.names, names) << what;
    // run_histogram keeps its machine to itself, so these are the streams
    // each device enqueued work on.
    std::vector<std::size_t> streams(kDevices, 0);
    for (const auto& [device, lane] : log.lanes) {
      ++streams[static_cast<std::size_t>(device)];
    }
    const std::vector<std::size_t> want(kDevices, streams_for(plan));
    EXPECT_EQ(streams, want) << what;
  }
}

TEST(RunSlab, RejectsInvalidPlan) {
  vgpu::Machine m(vgpu::MachineSpec::hgx_a100(2));
  vshmem::World w(m);
  stencil::Jacobi2D prob;
  prob.nx = 8;
  prob.ny = 8;
  stencil::StencilConfig cfg;
  cfg.iterations = 1;
  stencil::SlabStencil<stencil::Jacobi2D> S(w, prob, cfg);
  // Persistent launch with host-barrier sync can never compose.
  const Plan bad{LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
                 SyncPolicy::kHostBarrier};
  exec::Program prog = stencil::make_slab_program(S, Variant::kCpuFree);
  prog.plan = bad;
  EXPECT_THROW(exec::run_program(prog), std::invalid_argument);
}

TEST(RunSlab, PersistentTaskRejectsHostLoopAndInvalidPlans) {
  // The spawned form leaves the engine to its caller, so a host-loop plan
  // is rejected like an invalid one; either error surfaces from
  // engine.run() and names the component at fault.
  const Plan host_loop{LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
                       SyncPolicy::kHostBarrier};
  const Plan bad{LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
                 SyncPolicy::kHostBarrier};
  for (const auto& [plan, why] :
       {std::pair{host_loop, "host_loop plans drive the engine themselves"},
        std::pair{bad, "invalid plan"}}) {
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(2));
    vshmem::World w(m);
    stencil::Jacobi2D prob;
    prob.nx = 8;
    prob.ny = 8;
    stencil::StencilConfig cfg;
    cfg.iterations = 1;
    stencil::SlabStencil<stencil::Jacobi2D> S(w, prob, cfg);
    exec::Program prog = stencil::make_slab_program(S, Variant::kCpuFree);
    prog.plan = plan;
    m.engine().spawn(exec::run_program_persistent_task(prog));
    try {
      m.engine().run();
      ADD_FAILURE() << "expected std::invalid_argument (" << why << ')';
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunProgram, RejectsAProgramWithoutTheHookItsPlanUses) {
  // A default Plan is a valid host loop, so a program whose plan was left
  // unset would call a null host_step. Each program below has only the
  // hook its plan does not use; both entry points name the missing one
  // before they name a flag or create a stream (the spawned form from
  // engine.run()).
  const Plan persistent{LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
                        SyncPolicy::kIterationFlags};
  const Plan pair{LaunchPolicy::kPersistentPair, CommPolicy::kSignaledPut,
                  SyncPolicy::kIterationFlags};
  for (const Plan& plan : {Plan{}, persistent, pair}) {
    const bool host = plan.launch == LaunchPolicy::kHostLoop;
    for (bool spawned : {false, true}) {
      if (host && spawned) continue;
      vgpu::Machine m(vgpu::MachineSpec::hgx_a100(2));
      vshmem::World w(m);
      exec::Program prog{.world = &w, .plan = plan};
      if (host) {
        prog.groups = [](int, const exec::IterationJoin&) {
          return exec::ProgramGroups{};
        };
      } else {
        prog.host_step = [](vgpu::HostCtx&, int, int,
                            std::span<vgpu::Stream* const>) -> sim::Task {
          co_return;
        };
      }
      std::string want = spawned ? "run_program_persistent_task" : "run_program";
      want += ": launch: ";
      want += exec::name(plan.launch);
      want += host ? " needs the host_step hook" : " needs the groups hook";
      CreationCounter counter;
      m.engine().set_observer(&counter);
      try {
        if (spawned) {
          m.engine().spawn(exec::run_program_persistent_task(prog));
          m.engine().run();
        } else {
          exec::run_program(prog);
        }
        ADD_FAILURE() << want << ": the program ran";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
      m.engine().set_observer(nullptr);
      EXPECT_EQ(counter.created, 0) << want;
      for (int d = 0; d < m.num_devices(); ++d) {
        EXPECT_EQ(m.device(d).stream_count(), 0u) << want;
      }
    }
  }
}

}  // namespace
