// Tests for the dacelite mini-compiler: IR validation, transformations
// (GPUTransform, MapFusion, GPUPersistentKernel with relaxed barriers,
// NVSHMEMArray storage inference, MPI->NVSHMEM port), expansion selection,
// and end-to-end execution of the generated programs against serial
// references in both backends.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cpufree/metrics.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/ir.hpp"
#include "dacelite/pass.hpp"
#include "dacelite/transforms.hpp"
#include "hostmpi/comm.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace {

using dacelite::ArrayDesc;
using dacelite::ExecOptions;
using dacelite::LibKind;
using dacelite::LibraryNode;
using dacelite::MapNode;
using dacelite::Pipeline;
using dacelite::ProgramData;
using dacelite::PutExpansion;
using dacelite::Recipe;
using dacelite::Schedule;
using dacelite::Sdfg;
using dacelite::State;
using dacelite::Storage;
using dacelite::Subset;
using dacelite::ValidationError;
using vgpu::MachineSpec;

MachineSpec hgx(int n) { return MachineSpec::hgx_a100(n); }

// --- IR ----------------------------------------------------------------------

TEST(Ir, ValidateRejectsUnknownArray) {
  Sdfg s;
  s.name = "bad";
  State& st = s.add_body_state("st");
  MapNode m;
  m.name = "m";
  m.reads = {"ghost"};
  st.add(std::move(m));
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Ir, ValidateRejectsDuplicateArray) {
  Sdfg s;
  s.add_array(ArrayDesc{"A", 8, Storage::kHost, {}});
  EXPECT_THROW(s.add_array(ArrayDesc{"A", 8, Storage::kHost, {}}),
               ValidationError);
}

TEST(Ir, ValidateRejectsMemletOutOfRange) {
  Sdfg s;
  s.add_array(ArrayDesc{"A", 8, Storage::kHost, {}});
  State& st = s.add_body_state("st");
  st.add(dacelite::AccessNode{"A"});
  st.connect(0, 5, "A");
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Ir, NvshmemNodeRequiresSymmetricStorage) {
  Sdfg s;
  s.add_array(ArrayDesc{"A", 8, Storage::kGpuGlobal, {}});
  State& st = s.add_body_state("st");
  LibraryNode put;
  put.kind = LibKind::kNvshmemPutmemSignal;
  put.array = "A";
  st.add(put);
  EXPECT_THROW(s.validate(), ValidationError);
  dacelite::apply_nvshmem_arrays(s);
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.arrays.at("A").storage, Storage::kGpuNvshmem);
}

TEST(Ir, SubsetShapes) {
  EXPECT_TRUE((Subset{0, 1, 1}).single_element());
  EXPECT_TRUE((Subset{4, 10, 1}).contiguous());
  EXPECT_FALSE((Subset{4, 10, 34}).contiguous());
  EXPECT_TRUE((Subset{4, 1, 34}).contiguous());  // one element is contiguous
  EXPECT_EQ((Subset{10, 4, 3}).index(2), 16u);
}

TEST(Ir, ReadWriteSetsIncludeLibraryNodes) {
  Sdfg s;
  s.add_array(ArrayDesc{"A", 8, Storage::kHost, {}});
  State& st = s.add_body_state("st");
  LibraryNode send;
  send.kind = LibKind::kMpiIsend;
  send.array = "A";
  st.add(send);
  const auto reads = st.read_set();
  const auto writes = st.write_set();
  EXPECT_NE(std::find(reads.begin(), reads.end(), "A"), reads.end());
  EXPECT_NE(std::find(writes.begin(), writes.end(), "A"), writes.end());
}

// --- Transformations ----------------------------------------------------------

TEST(Transforms, GpuTransformSchedulesMapsAndMovesArrays) {
  auto prog = dacelite::make_jacobi1d(64, 4, 3);
  const int changed = dacelite::apply_gpu_transform(prog.sdfg);
  EXPECT_GT(changed, 0);
  EXPECT_TRUE(prog.sdfg.gpu);
  EXPECT_EQ(prog.sdfg.arrays.at("A").storage, Storage::kGpuGlobal);
  for (const State& st : prog.sdfg.body) {
    for (const auto& n : st.nodes) {
      if (const auto* m = std::get_if<MapNode>(&n)) {
        EXPECT_EQ(m->schedule, Schedule::kGpuDevice);
      }
    }
  }
}

TEST(Transforms, MapFusionFusesProducerConsumer) {
  Sdfg s;
  s.add_array(ArrayDesc{"A", 8, Storage::kHost, {}});
  s.add_array(ArrayDesc{"tmp", 8, Storage::kHost, {}});
  s.add_array(ArrayDesc{"B", 8, Storage::kHost, {}});
  State& st = s.add_body_state("st");
  MapNode a;
  a.name = "a";
  a.points = 8;
  a.reads = {"A"};
  a.writes = {"tmp"};
  MapNode b;
  b.name = "b";
  b.points = 8;
  b.reads = {"tmp"};
  b.writes = {"B"};
  const std::size_t ia = st.add(std::move(a));
  const std::size_t iacc = st.add(dacelite::AccessNode{"tmp"});
  const std::size_t ib = st.add(std::move(b));
  st.connect(ia, iacc, "tmp");
  st.connect(iacc, ib, "tmp");
  EXPECT_EQ(dacelite::apply_map_fusion(st), 1);
  const auto* merged = std::get_if<MapNode>(&st.nodes[ia]);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->name, "a+b");
  EXPECT_DOUBLE_EQ(merged->bytes_per_point, 32.0);
  EXPECT_TRUE(st.memlets.empty());
}

TEST(Transforms, MapFusionRejectsMismatchedDomains) {
  Sdfg s;
  s.add_array(ArrayDesc{"tmp", 8, Storage::kHost, {}});
  State& st = s.add_body_state("st");
  MapNode a;
  a.points = 8;
  a.writes = {"tmp"};
  MapNode b;
  b.points = 16;  // different domain
  b.reads = {"tmp"};
  const std::size_t ia = st.add(std::move(a));
  const std::size_t iacc = st.add(dacelite::AccessNode{"tmp"});
  const std::size_t ib = st.add(std::move(b));
  st.connect(ia, iacc, "tmp");
  st.connect(iacc, ib, "tmp");
  EXPECT_EQ(dacelite::apply_map_fusion(st), 0);
}

TEST(Transforms, MapFusionRejectsSharedIntermediate) {
  Sdfg s;
  s.add_array(ArrayDesc{"tmp", 8, Storage::kHost, {}});
  State& st = s.add_body_state("st");
  MapNode a;
  a.points = 8;
  a.writes = {"tmp"};
  MapNode b;
  b.points = 8;
  b.reads = {"tmp"};
  MapNode c;
  c.points = 8;
  c.reads = {"tmp"};  // second consumer
  const std::size_t ia = st.add(std::move(a));
  const std::size_t iacc = st.add(dacelite::AccessNode{"tmp"});
  const std::size_t ib = st.add(std::move(b));
  const std::size_t ic = st.add(std::move(c));
  st.connect(ia, iacc, "tmp");
  st.connect(iacc, ib, "tmp");
  st.connect(iacc, ic, "tmp");
  EXPECT_EQ(dacelite::apply_map_fusion(st), 0);
}

TEST(Transforms, PersistentRequiresGpu) {
  auto prog = dacelite::make_jacobi1d(64, 4, 3);
  EXPECT_THROW(dacelite::apply_persistent(prog.sdfg), ValidationError);
}

TEST(Transforms, PersistentBarrierPlacementIsRelaxed) {
  // Two independent states (disjoint arrays) need no barrier between them;
  // a dependent edge does.
  Sdfg s;
  s.add_array(ArrayDesc{"A", 8, Storage::kHost, {}});
  s.add_array(ArrayDesc{"B", 8, Storage::kHost, {}});
  s.add_array(ArrayDesc{"C", 8, Storage::kHost, {}});
  {
    State& st = s.add_body_state("writes_A");
    MapNode m;
    m.points = 8;
    m.schedule = Schedule::kGpuDevice;
    m.writes = {"A"};
    st.add(std::move(m));
  }
  {
    State& st = s.add_body_state("independent_B");
    MapNode m;
    m.points = 8;
    m.schedule = Schedule::kGpuDevice;
    m.reads = {"B"};
    m.writes = {"C"};
    st.add(std::move(m));
  }
  {
    State& st = s.add_body_state("reads_C");
    MapNode m;
    m.points = 8;
    m.schedule = Schedule::kGpuDevice;
    m.reads = {"C"};
    m.writes = {"B"};
    st.add(std::move(m));
  }
  s.gpu = true;
  dacelite::apply_persistent(s);
  ASSERT_EQ(s.barrier_after.size(), 3u);
  // Dependencies: state1 -> state2 on C (needs a barrier after state1) and
  // state2 -> next iteration's state1 on B (covered by a barrier after
  // state0, since state0 does not touch B). The edge after state2 carries no
  // dependency and stays barrier-free — the relaxation in action.
  EXPECT_TRUE(s.barrier_after[0]);
  EXPECT_TRUE(s.barrier_after[1]);
  EXPECT_FALSE(s.barrier_after[2]);
}

TEST(Transforms, MpiToNvshmemRewritesNodes) {
  auto prog = dacelite::make_jacobi1d(64, 4, 3);
  int puts = 0, waits = 0, waitalls = 0;
  const int changed = dacelite::apply_mpi_to_nvshmem(prog.sdfg);
  for (const State& st : prog.sdfg.body) {
    for (const auto& n : st.nodes) {
      if (const auto* lib = std::get_if<LibraryNode>(&n)) {
        if (lib->kind == LibKind::kNvshmemPutmemSignal) ++puts;
        if (lib->kind == LibKind::kNvshmemSignalWait) ++waits;
        if (lib->kind == LibKind::kMpiWaitall) ++waitalls;
      }
    }
  }
  EXPECT_EQ(puts, 2);      // Isend -> PutmemSignal
  EXPECT_EQ(waits, 2);     // Irecv -> SignalWait
  EXPECT_EQ(waitalls, 0);  // dropped
  EXPECT_EQ(changed, 5);
}

TEST(Transforms, ExpansionSelection) {
  using dacelite::select_expansion;
  EXPECT_EQ(select_expansion(Subset{0, 1, 1}, Subset{9, 1, 1}),
            PutExpansion::kSingleElementP);
  EXPECT_EQ(select_expansion(Subset{0, 64, 1}, Subset{9, 64, 1}),
            PutExpansion::kContiguousSignal);
  EXPECT_EQ(select_expansion(Subset{0, 64, 34}, Subset{9, 64, 34}),
            PutExpansion::kStridedIputSignal);
  // Mixed: strided on either side forces the iput path.
  EXPECT_EQ(select_expansion(Subset{0, 64, 1}, Subset{9, 64, 34}),
            PutExpansion::kStridedIputSignal);
}

TEST(Transforms, ToCpuFreeRecipeProducesValidPersistentSdfg) {
  auto prog = dacelite::make_jacobi2d(24, 4, 3);
  dacelite::to_cpu_free(prog.sdfg);
  EXPECT_TRUE(prog.sdfg.gpu);
  EXPECT_TRUE(prog.sdfg.persistent);
  EXPECT_EQ(prog.sdfg.arrays.at("A").storage, Storage::kGpuNvshmem);
  EXPECT_NO_THROW(prog.sdfg.validate());
}

TEST(Frontend, GridDims) {
  EXPECT_EQ(dacelite::grid_dims(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(dacelite::grid_dims(2), (std::pair<int, int>{1, 2}));  // rectangular
  EXPECT_EQ(dacelite::grid_dims(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(dacelite::grid_dims(8), (std::pair<int, int>{2, 4}));  // rectangular
  EXPECT_EQ(dacelite::grid_dims(6), (std::pair<int, int>{2, 3}));
}

TEST(Frontend, FewerThanOneRankIsRejected) {
  // Checked before any division: zero ranks divided by zero, and -1 cast
  // sqrt(-1) to int.
  const auto expect_rejected = [](auto build, int ranks) {
    try {
      static_cast<void>(build(ranks));
      ADD_FAILURE() << "ranks " << ranks << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ranks"), std::string::npos)
          << e.what();
    }
  };
  for (int ranks : {0, -1}) {
    expect_rejected([](int r) { return dacelite::grid_dims(r); }, ranks);
    expect_rejected([](int r) { return dacelite::make_jacobi1d(48, r, 1); },
                    ranks);
    expect_rejected([](int r) { return dacelite::make_jacobi2d(48, r, 1); },
                    ranks);
  }
}

TEST(Frontend, FewerThanOneIterationIsRejected) {
  // A discrete run is a host loop of `iterations` steps whose first step
  // runs the setup states, so zero iterations has no step to run them in:
  // the builders reject it like a rank count, and so does validate() for a
  // hand-built SDFG.
  for (int iterations : {0, -1}) {
    const auto expect_rejected = [iterations](auto build) {
      try {
        static_cast<void>(build(iterations));
        ADD_FAILURE() << "iterations " << iterations << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("iterations"), std::string::npos)
            << e.what();
      }
    };
    expect_rejected([](int it) { return dacelite::make_jacobi1d(48, 2, it); });
    expect_rejected([](int it) { return dacelite::make_jacobi2d(48, 2, it); });
    Sdfg s;
    s.default_iterations = iterations;
    EXPECT_THROW(s.validate(), ValidationError);
  }
}

// --- End-to-end: generated code matches serial references --------------------

class Jacobi1dEndToEnd : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Jacobi1dEndToEnd, DiscreteMatchesReference) {
  const auto [ranks, iters] = GetParam();
  auto prog = dacelite::make_jacobi1d(48, ranks, iters);
  dacelite::apply_gpu_transform(prog.sdfg);
  vgpu::Machine m(hgx(ranks));
  vshmem::World w(m);
  hostmpi::Comm comm(m);
  ProgramData data(w, prog.sdfg, /*functional=*/true);
  dacelite::execute_discrete(m, comm, data, prog.sdfg, ExecOptions{});
  EXPECT_EQ(prog.gather(data), prog.reference(iters));
}

TEST_P(Jacobi1dEndToEnd, PersistentCpuFreeMatchesReference) {
  const auto [ranks, iters] = GetParam();
  auto prog = dacelite::make_jacobi1d(48, ranks, iters);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::Machine m(hgx(ranks));
  vshmem::World w(m);
  ProgramData data(w, prog.sdfg, /*functional=*/true);
  dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
  EXPECT_EQ(prog.gather(data), prog.reference(iters));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Jacobi1dEndToEnd,
    ::testing::Combine(::testing::Values(1, 2, 4, 8), ::testing::Values(1, 5)));

class Jacobi2dEndToEnd : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Jacobi2dEndToEnd, DiscreteMatchesReference) {
  const auto [ranks, iters] = GetParam();
  auto prog = dacelite::make_jacobi2d(24, ranks, iters);
  dacelite::apply_gpu_transform(prog.sdfg);
  vgpu::Machine m(hgx(ranks));
  vshmem::World w(m);
  hostmpi::Comm comm(m);
  ProgramData data(w, prog.sdfg, true);
  dacelite::execute_discrete(m, comm, data, prog.sdfg, ExecOptions{});
  EXPECT_EQ(prog.gather(data), prog.reference(iters));
}

TEST_P(Jacobi2dEndToEnd, PersistentCpuFreeMatchesReference) {
  const auto [ranks, iters] = GetParam();
  auto prog = dacelite::make_jacobi2d(24, ranks, iters);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::Machine m(hgx(ranks));
  vshmem::World w(m);
  ProgramData data(w, prog.sdfg, true);
  dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
  EXPECT_EQ(prog.gather(data), prog.reference(iters));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Jacobi2dEndToEnd,
    ::testing::Combine(::testing::Values(1, 2, 4, 8), ::testing::Values(1, 4)));

// ExecOptions::functional must agree with the ProgramData's mode, which is
// what decides whether the numerics run: every entry point rejects a
// mismatch in either direction, naming both values, instead of ignoring the
// option. The spawned form raises it from engine.run().
TEST(ExecMode, EveryEntryPointRejectsAModeMismatch) {
  for (bool data_functional : {true, false}) {
    ExecOptions opt;
    opt.functional = !data_functional;
    std::string want = ": ExecOptions::functional is ";
    want += opt.functional ? "true" : "false";
    want += " but the ProgramData was built with functional ";
    want += data_functional ? "true" : "false";
    const auto expect_rejected = [&want](const std::string& fn, auto&& run) {
      try {
        run();
        ADD_FAILURE() << fn << " accepted a mode mismatch";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(fn + want), std::string::npos)
            << e.what();
      }
    };
    {
      auto prog = dacelite::make_jacobi1d(48, 2, 2);
      dacelite::apply_gpu_transform(prog.sdfg);
      vgpu::Machine m(hgx(2));
      vshmem::World w(m);
      hostmpi::Comm comm(m);
      ProgramData data(w, prog.sdfg, data_functional);
      expect_rejected("execute_discrete", [&] {
        (void)dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
      });
    }
    for (bool spawned : {false, true}) {
      auto prog = dacelite::make_jacobi1d(48, 2, 2);
      dacelite::to_cpu_free(prog.sdfg);
      vgpu::Machine m(hgx(2));
      vshmem::World w(m);
      ProgramData data(w, prog.sdfg, data_functional);
      if (spawned) {
        m.engine().spawn(
            dacelite::execute_persistent_task(data, prog.sdfg, opt));
        expect_rejected("execute_persistent_task", [&] { m.engine().run(); });
      } else {
        expect_rejected("execute_persistent", [&] {
          (void)dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
        });
      }
    }
  }
}

TEST(ExecWorld, EveryEntryPointRejectsAForeignMachineOrWorld) {
  // The SDFG's arrays and signals live in the ProgramData's World, so each
  // entry point that is handed a machine or a World besides runs there and
  // throws, naming itself, when it is another one. (The spawned form takes
  // neither: it runs on the ProgramData's World.)
  const auto expect_rejected = [](const std::string& fn,
                                  const std::string& what, auto&& run) {
    try {
      run();
      ADD_FAILURE() << fn << " accepted a foreign " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fn + ": the " + what + " is not"),
                std::string::npos)
          << e.what();
    }
  };
  {
    auto prog = dacelite::make_jacobi1d(48, 2, 2);
    dacelite::apply_gpu_transform(prog.sdfg);
    vgpu::Machine m(hgx(2));
    vgpu::Machine other(hgx(2));
    vshmem::World w(m);
    hostmpi::Comm comm(other);
    ProgramData data(w, prog.sdfg, true);
    expect_rejected("execute_discrete", "machine", [&] {
      (void)dacelite::execute_discrete(other, comm, data, prog.sdfg, {});
    });
  }
  for (bool foreign_world : {false, true}) {
    auto prog = dacelite::make_jacobi1d(48, 2, 2);
    dacelite::to_cpu_free(prog.sdfg);
    vgpu::Machine m(hgx(2));
    vgpu::Machine other(hgx(2));
    vshmem::World w(m);
    vshmem::World slice(m, {0, 1}, "other.");
    ProgramData data(w, prog.sdfg, true);
    // Either the World on the right machine, or the right World with
    // another machine.
    vgpu::Machine& mm = foreign_world ? m : other;
    vshmem::World& ww = foreign_world ? slice : w;
    const std::string what = foreign_world ? "World" : "machine";
    expect_rejected("execute_persistent", what, [&] {
      (void)dacelite::execute_persistent(mm, ww, data, prog.sdfg, {});
    });
  }
}

TEST(ExecWorld, DiscreteRejectsACommOnAnotherMachine) {
  // The MPI operations wait on the Comm's machine's engine, so a Comm built
  // on another machine would leave every rank blocked; execute_discrete
  // rejects it before anything runs.
  auto prog = dacelite::make_jacobi1d(48, 2, 2);
  dacelite::apply_gpu_transform(prog.sdfg);
  vgpu::Machine m(hgx(2));
  vgpu::Machine other(hgx(2));
  vshmem::World w(m);
  hostmpi::Comm comm(other);
  ProgramData data(w, prog.sdfg, true);
  try {
    (void)dacelite::execute_discrete(m, comm, data, prog.sdfg, {});
    ADD_FAILURE() << "execute_discrete accepted a Comm on another machine";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "execute_discrete: the Comm is not on the ProgramData's "
                 "World's machine");
  }
  EXPECT_EQ(m.engine().now(), 0);
}

// Functional check of MapFusion: a two-stage pipeline (tmp = 2A; B = tmp+1)
// computes the same result before and after fusion, and the fused program
// launches half the kernels.
TEST(Transforms, MapFusionPreservesSemanticsAndSavesLaunches) {
  auto build = [] {
    Sdfg s;
    s.name = "pipeline";
    s.default_iterations = 3;
    auto init = [](int, std::size_t i) { return static_cast<double>(i); };
    s.add_array(ArrayDesc{"A", 8, Storage::kHost, init});
    s.add_array(ArrayDesc{"tmp", 8, Storage::kHost, {}});
    s.add_array(ArrayDesc{"B", 8, Storage::kHost, {}});
    State& st = s.add_body_state("stage");
    MapNode a;
    a.name = "double";
    a.points = 8;
    a.reads = {"A"};
    a.writes = {"tmp"};
    a.body = [](dacelite::ExecCtx& c) {
      auto in = c.local("A");
      auto out = c.local("tmp");
      for (std::size_t i = 0; i < 8; ++i) out[i] = 2.0 * in[i];
    };
    MapNode b;
    b.name = "inc";
    b.points = 8;
    b.reads = {"tmp"};
    b.writes = {"B"};
    b.body = [](dacelite::ExecCtx& c) {
      auto in = c.local("tmp");
      auto out = c.local("B");
      for (std::size_t i = 0; i < 8; ++i) out[i] = in[i] + 1.0;
    };
    const std::size_t ia = st.add(std::move(a));
    const std::size_t iacc = st.add(dacelite::AccessNode{"tmp"});
    const std::size_t ib = st.add(std::move(b));
    st.connect(ia, iacc, "tmp");
    st.connect(iacc, ib, "tmp");
    return s;
  };

  auto run = [](Sdfg& s) {
    dacelite::apply_gpu_transform(s);
    vgpu::Machine m(hgx(1));
    m.trace().keep_intervals();
    vshmem::World w(m);
    hostmpi::Comm comm(m);
    ProgramData data(w, s, true);
    dacelite::execute_discrete(m, comm, data, s, ExecOptions{});
    std::vector<double> out(data.local("B", 0).begin(),
                            data.local("B", 0).end());
    int map_launches = 0;
    for (const auto& iv : m.trace().intervals()) {
      if (iv.cat == sim::Cat::kKernel) ++map_launches;
    }
    return std::pair<std::vector<double>, int>(out, map_launches);
  };

  Sdfg unfused = build();
  Sdfg fused = build();
  EXPECT_EQ(dacelite::apply_map_fusion(fused), 1);
  const auto [out_a, launches_a] = run(unfused);
  const auto [out_b, launches_b] = run(fused);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(out_a[3], 7.0);  // 2*3 + 1
  EXPECT_EQ(launches_b, launches_a / 2);
}

// Setup states run once before the loop; tasklets execute on the host path.
TEST(Exec, SetupStateAndTaskletRunOnce) {
  Sdfg s;
  s.name = "with_setup";
  s.default_iterations = 4;
  s.add_array(ArrayDesc{"A", 4, Storage::kHost, {}});
  int setup_runs = 0;
  int tasklet_runs = 0;
  {
    State& st = s.add_setup_state("init");
    MapNode m;
    m.name = "fill";
    m.points = 4;
    m.writes = {"A"};
    m.body = [&setup_runs](dacelite::ExecCtx& c) {
      ++setup_runs;
      auto a = c.local("A");
      for (std::size_t i = 0; i < 4; ++i) a[i] = 5.0;
    };
    st.add(std::move(m));
  }
  {
    State& st = s.add_body_state("step");
    dacelite::Tasklet tl;
    tl.name = "bump";
    tl.reads = {"A"};
    tl.writes = {"A"};
    tl.body = [&tasklet_runs](dacelite::ExecCtx& c) {
      ++tasklet_runs;
      c.local("A")[0] += 1.0;
    };
    st.add(std::move(tl));
  }
  dacelite::apply_gpu_transform(s);
  vgpu::Machine m(hgx(1));
  vshmem::World w(m);
  hostmpi::Comm comm(m);
  ProgramData data(w, s, true);
  dacelite::execute_discrete(m, comm, data, s, ExecOptions{});
  EXPECT_EQ(setup_runs, 1);
  EXPECT_EQ(tasklet_runs, 4);
  EXPECT_EQ(data.local("A", 0)[0], 9.0);  // 5 + 4 increments
}

TEST(Exec, PersistentRunsOnADeviceSlice) {
  // Four ranks on devices 4..7 of an 8-GPU node: PE i lives on device 4+i.
  auto prog = dacelite::make_jacobi2d(48, 4, 5);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::Machine m(hgx(8));
  vshmem::World w(m, {4, 5, 6, 7}, "slice.");
  ProgramData data(w, prog.sdfg, true);
  dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
  EXPECT_EQ(prog.gather(data), prog.reference(5));
}

// --- Backend misuse guards ----------------------------------------------------

TEST(Exec, PersistentBackendRejectsNonPersistentSdfg) {
  auto prog = dacelite::make_jacobi1d(16, 2, 1);
  dacelite::apply_gpu_transform(prog.sdfg);
  vgpu::Machine m(hgx(2));
  vshmem::World w(m);
  ProgramData data(w, prog.sdfg, true);
  EXPECT_THROW(
      dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{}),
      ValidationError);
}

TEST(Exec, DiscreteBackendRejectsNvshmemNodes) {
  auto prog = dacelite::make_jacobi1d(16, 2, 1);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::Machine m(hgx(2));
  vshmem::World w(m);
  hostmpi::Comm comm(m);
  ProgramData data(w, prog.sdfg, true);
  EXPECT_THROW(
      dacelite::execute_discrete(m, comm, data, prog.sdfg, ExecOptions{}),
      ValidationError);
}

// --- Performance shape (Fig. 6.3) ---------------------------------------------

TEST(Shape, CpuFreeGeneratedCodeBeatsMpiBaseline) {
  const int ranks = 8;
  const int iters = 20;
  ExecOptions opt;
  opt.functional = false;

  auto base = dacelite::make_jacobi2d(1024, ranks, iters);
  dacelite::apply_gpu_transform(base.sdfg);
  vgpu::Machine mb(hgx(ranks));
  vshmem::World wb(mb);
  hostmpi::Comm comm(mb);
  ProgramData db(wb, base.sdfg, false);
  const auto rb = dacelite::execute_discrete(mb, comm, db, base.sdfg, opt);

  auto free_prog = dacelite::make_jacobi2d(1024, ranks, iters);
  dacelite::to_cpu_free(free_prog.sdfg);
  vgpu::Machine mf(hgx(ranks));
  vshmem::World wf(mf);
  ProgramData df(wf, free_prog.sdfg, false);
  const auto rf =
      dacelite::execute_persistent(mf, wf, df, free_prog.sdfg, opt);

  EXPECT_LT(rf.metrics.total, rb.metrics.total);
  // Fig. 6.3b: the baseline is dominated by communication — in the paper's
  // accounting, everything that is not computation (host API calls, staging,
  // MPI waits, wire time).
  EXPECT_GT(rb.metrics.noncompute_fraction, 0.9);
}

// The generated persistent program's flag protocol must stay bitwise-correct
// when devices run at wildly different speeds (up to ranks-x DRAM skew).
class DaceSkewSweep : public ::testing::TestWithParam<int> {};

TEST_P(DaceSkewSweep, PersistentProtocolCorrectUnderTimingSkew) {
  const int ranks = GetParam();
  vgpu::MachineSpec spec = hgx(ranks);
  for (int d = 0; d < ranks; ++d) {
    vgpu::DeviceSpec ds = spec.device;
    ds.dram_bw_gbps = spec.device.dram_bw_gbps / (1.0 + d);
    ds.grid_sync = spec.device.grid_sync * (d + 1);
    spec.device_overrides.push_back(ds);
  }
  auto prog = dacelite::make_jacobi2d(24, ranks, 6);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::Machine m(spec);
  vshmem::World w(m);
  ProgramData data(w, prog.sdfg, true);
  dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
  EXPECT_EQ(prog.gather(data), prog.reference(6));
}

INSTANTIATE_TEST_SUITE_P(Skew, DaceSkewSweep, ::testing::Values(2, 4, 8));

// Directed link skew: every lane from a lower to a higher rank runs 1000x
// slower than the machine's link, so rank 0's row put to rank 1 is still on
// the wire when rank 0 reaches copy_back and overwrites that row of A. The
// MPI->NVSHMEM port dropped the Waitall that made the send buffer reusable;
// the persistent backend must still deliver the row it put, not the next
// iteration's.
TEST_F(DaceSkewSweep, PutSourceSurvivesDirectedLinkSkew) {
  vgpu::MachineSpec spec = hgx(2);
  spec.topology = vgpu::resolve_topology(spec);
  for (topo::Link& l : spec.topology.links) {
    if (l.name == "nvl:gpu0>gpu1") l.bw_gbps = spec.link.bw_gbps / 1000.0;
  }
  auto prog = dacelite::make_jacobi2d(48, 2, 10);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::Machine m(spec);
  vshmem::World w(m);
  ProgramData data(w, prog.sdfg, true);
  dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
  const std::vector<double> got = prog.gather(data);
  const std::vector<double> want = prog.reference(10);
  ASSERT_EQ(got.size(), want.size());
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < got.size(); ++i) wrong += got[i] != want[i];
  EXPECT_EQ(wrong, 0u);
}

TEST(Determinism, GeneratedProgramsAreReproducible) {
  auto run_once = [] {
    auto prog = dacelite::make_jacobi2d(24, 4, 3);
    dacelite::to_cpu_free(prog.sdfg);
    vgpu::Machine m(hgx(4));
    vshmem::World w(m);
    ProgramData data(w, prog.sdfg, true);
    const auto r =
        dacelite::execute_persistent(m, w, data, prog.sdfg, ExecOptions{});
    return r.metrics.total;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Pinned digest -----------------------------------------------------------

/// FNV-1a over a 64-bit word's bytes, low byte first.
void fnv_word(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
}

void fnv_text(std::uint64_t& h, std::string_view text) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
}

TEST(DaceliteDigest, GeneratedCasesArePinned) {
  // Both backends on Jacobi1D and Jacobi2D over 1-4 ranks, 1 and 3
  // iterations, functional and timing-only runs and both block sizes (a
  // discrete launch's block size never reaches simulated time; the
  // persistent backend's caps its resident blocks); then the persistent
  // ablations: the persistent(barriers=conservative) recipe, blocking puts,
  // mapped p and each forced expansion. Each case adds its metrics JSON, put
  // expansion, resolved persistent blocks and, when functional, the gathered
  // result.
  std::uint64_t h = 1469598103934665603ull;
  int cases = 0;
  const auto run = [&](auto prog, bool persistent, const ExecOptions& opt,
                       const Recipe& recipe) {
    dacelite::ExecResult r;
    std::vector<double> got;
    if (persistent) {
      Pipeline().apply(prog.sdfg, recipe);
      vgpu::Machine m(hgx(prog.ranks));
      vshmem::World w(m);
      ProgramData data(w, prog.sdfg, opt.functional);
      r = dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
      if (opt.functional) got = prog.gather(data);
    } else {
      dacelite::apply_gpu_transform(prog.sdfg);
      vgpu::Machine m(hgx(prog.ranks));
      vshmem::World w(m);
      hostmpi::Comm comm(m);
      ProgramData data(w, prog.sdfg, opt.functional);
      r = dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
      if (opt.functional) got = prog.gather(data);
    }
    fnv_text(h, cpufree::to_json(r.metrics));
    fnv_text(h, r.put_expansion);
    fnv_word(h, static_cast<std::uint64_t>(r.persistent_blocks));
    fnv_word(h, got.size());
    for (double v : got) fnv_word(h, std::bit_cast<std::uint64_t>(v));
    ++cases;
  };
  const auto both = [&](bool two_d, int ranks, int iters, bool persistent,
                        const ExecOptions& opt,
                        const Recipe& recipe = Recipe::cpu_free_default()) {
    if (two_d) {
      run(dacelite::make_jacobi2d(24, ranks, iters), persistent, opt, recipe);
    } else {
      run(dacelite::make_jacobi1d(48, ranks, iters), persistent, opt, recipe);
    }
  };
  Recipe conservative = Recipe::cpu_free_default();
  conservative.steps.back().params["barriers"] = "conservative";
  for (bool two_d : {false, true}) {
    for (int ranks = 1; ranks <= 4; ++ranks) {
      for (int iters : {1, 3}) {
        for (bool functional : {true, false}) {
          for (int tpb : {256, 1024}) {
            for (bool persistent : {false, true}) {
              ExecOptions opt;
              opt.functional = functional;
              opt.threads_per_block = tpb;
              both(two_d, ranks, iters, persistent, opt);
            }
          }
        }
      }
      both(two_d, ranks, 3, /*persistent=*/true, ExecOptions{}, conservative);
      std::vector<ExecOptions> ablations(5);
      ablations[0].blocking_puts = true;
      ablations[1].mapped_p_expansion = true;
      ablations[2].expansion = dacelite::ExpansionChoice::kContiguousSignal;
      ablations[3].expansion = dacelite::ExpansionChoice::kStridedIputSignal;
      ablations[4].expansion = dacelite::ExpansionChoice::kSingleElementP;
      for (const ExecOptions& opt : ablations) {
        both(two_d, ranks, 3, /*persistent=*/true, opt);
      }
    }
  }
  EXPECT_EQ(cases, 176);
  EXPECT_EQ(h, 0x8279530f64f9739cull);
}

}  // namespace
