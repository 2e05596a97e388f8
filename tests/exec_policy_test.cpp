// Tests for the execution-policy layer: the plan vocabulary (validity rules,
// variant mapping, persistent-block resolution) and the end-to-end guarantee
// the refactor rests on — every stencil variant is a policy composition over
// the SAME numerics, so all seven produce bit-identical grids on the same
// problem.
#include <gtest/gtest.h>

#include <cstddef>
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
  const stencil::SlabSetup setup = stencil::make_slab_setup(S, v);
  if (spawned) {
    m.engine().spawn(exec::run_program_persistent_task(
        setup.program, setup.plan, setup.params));
    m.engine().run();
  } else {
    exec::run_program(setup.program, setup.plan, setup.params);
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
  // it allocates a signal or creates a stream.
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
    const stencil::SlabSetup setup = stencil::make_slab_setup(S, v);
    CreationCounter counter;
    m.engine().set_observer(&counter);
    const std::size_t bytes = m.live_bytes();
    try {
      exec::run_program(setup.program, setup.plan, setup.params);
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
  const stencil::SlabSetup setup =
      stencil::make_slab_setup(S, Variant::kCpuFree);
  EXPECT_THROW(exec::run_program(setup.program, bad, setup.params),
               std::invalid_argument);
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
    const stencil::SlabSetup setup =
        stencil::make_slab_setup(S, Variant::kCpuFree);
    m.engine().spawn(
        exec::run_program_persistent_task(setup.program, plan, setup.params));
    try {
      m.engine().run();
      ADD_FAILURE() << "expected std::invalid_argument (" << why << ')';
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
