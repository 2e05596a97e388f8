// Sharded-engine (PDES) determinism and TimerToken lifecycle tests.
//
// The contract under test: for ANY --pdes-threads value, a run produces
// byte-identical metrics (and canonical traces) to the serial engine —
// pdes_threads=1 never even constructs the sharded core, so it IS the
// historical loop. Workloads cover the exclusive-link crossbar, the
// contended multi-node path (progressive filling through the global gate),
// fault injection (lockstep rounds), the checker (observer forces
// single-worker rounds) and the functional mode (data-coupled rounds).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/detector.hpp"
#include "cpufree/metrics.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/transforms.hpp"
#include "ledger_scenarios.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"
#include "sim/sync.hpp"
#include "solvers/cg.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "vshmem/world.hpp"

namespace {

using stencil::StencilConfig;
using stencil::Variant;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::string j2d_metrics(const vgpu::MachineSpec& spec, bool functional) {
  stencil::Jacobi2D p;
  p.nx = functional ? 64 : 512;
  p.ny = functional ? 64 : 512;
  StencilConfig cfg;
  cfg.iterations = functional ? 8 : 5;
  cfg.functional = functional;
  cfg.persistent_blocks = 12;
  const auto r = stencil::run_jacobi2d(Variant::kCpuFree, spec, p, cfg);
  std::string out = cpufree::to_json(r.result.metrics);
  if (functional) {
    out += "|verified=" + std::to_string(r.verified ? 1 : 0);
  }
  return out;
}

std::string j3d_metrics(const vgpu::MachineSpec& spec, Variant v) {
  stencil::Jacobi3D p;
  p.nx = 48;
  p.ny = 32;
  p.nz = 24;
  StencilConfig cfg;
  cfg.iterations = 5;
  cfg.functional = false;
  const auto r = stencil::run_jacobi3d(v, spec, p, cfg);
  return cpufree::to_json(r.result.metrics);
}

TEST(PdesIdentity, Jacobi2dCrossbarMetricsBytePerThreadCount) {
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  spec.pdes_threads = 1;
  const std::string golden = j2d_metrics(spec, /*functional=*/false);
  for (int t : kThreadCounts) {
    spec.pdes_threads = t;
    EXPECT_EQ(j2d_metrics(spec, false), golden) << "pdes_threads=" << t;
  }
}

TEST(PdesIdentity, Jacobi3dMultiNodeMetricsBytePerThreadCount) {
  // multi_node routes cross shard over contended NIC/network links: the
  // progressive-filling ledger runs through the serialized phase.
  for (Variant v : {Variant::kCpuFree, Variant::kBaselineNvshmem}) {
    vgpu::MachineSpec spec = vgpu::MachineSpec::multi_node(2, 2);
    spec.pdes_threads = 1;
    const std::string golden = j3d_metrics(spec, v);
    for (int t : kThreadCounts) {
      spec.pdes_threads = t;
      EXPECT_EQ(j3d_metrics(spec, v), golden)
          << stencil::variant_name(v) << " pdes_threads=" << t;
    }
  }
}

TEST(PdesIdentity, FunctionalRunStaysVerifiedAndByteIdentical) {
  // Functional mode forces data-coupled (width-1 window, single worker)
  // rounds; numerics must still match the serial reference exactly.
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  spec.pdes_threads = 1;
  const std::string golden = j2d_metrics(spec, /*functional=*/true);
  ASSERT_NE(golden.find("verified=1"), std::string::npos);
  for (int t : {2, 4}) {
    spec.pdes_threads = t;
    EXPECT_EQ(j2d_metrics(spec, true), golden) << "pdes_threads=" << t;
  }
}

TEST(PdesIdentity, CgMetricsBytePerThreadCount) {
  solvers::CgConfig cfg;
  cfg.nx = 96;
  cfg.ny = 96;
  cfg.max_iterations = 15;
  cfg.functional = false;
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  spec.pdes_threads = 1;
  const std::string golden = cpufree::to_json(
      solvers::run_cg_cpufree(spec, cfg).metrics);
  for (int t : kThreadCounts) {
    spec.pdes_threads = t;
    EXPECT_EQ(cpufree::to_json(solvers::run_cg_cpufree(spec, cfg).metrics),
              golden)
        << "pdes_threads=" << t;
  }
}

std::string dacelite_metrics(int pdes_threads) {
  auto prog = dacelite::make_jacobi2d(128, 4, 8);
  dacelite::to_cpu_free(prog.sdfg);
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  spec.pdes_threads = pdes_threads;
  vgpu::Machine m(spec);
  vshmem::World w(m);
  dacelite::ExecOptions opt;
  opt.functional = false;
  dacelite::ProgramData data(w, prog.sdfg, false);
  const auto r = dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
  return cpufree::to_json(r.metrics) + "|iters=" + std::to_string(r.iterations);
}

TEST(PdesIdentity, DacelitePersistentBytePerThreadCount) {
  const std::string golden = dacelite_metrics(1);
  for (int t : kThreadCounts) {
    EXPECT_EQ(dacelite_metrics(t), golden) << "pdes_threads=" << t;
  }
}

std::string fault_soak(std::uint64_t seed, int pdes_threads) {
  stencil::Jacobi2D p;
  p.nx = 96;
  p.ny = 96;
  StencilConfig cfg;
  cfg.iterations = 12;
  cfg.functional = false;
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  spec.faults.seed = seed;
  spec.faults.rate = 0.05;
  spec.faults.resilience = fault::Resilience::kRetry;
  spec.pdes_threads = pdes_threads;
  const auto r = stencil::run_jacobi2d(Variant::kCpuFree, spec, p, cfg);
  return cpufree::to_json(r.result.metrics);
}

TEST(PdesIdentity, FaultScheduleDeterministicUnderSharding) {
  // Same seed, every shard count: identical injections, retries and
  // timings — the fault plane stays counter-pure because fault runs use
  // lockstep rounds (global time order, one worker).
  for (std::uint64_t seed : {7u, 23u}) {
    const std::string golden = fault_soak(seed, 1);
    EXPECT_NE(golden.find("faults_injected"), std::string::npos)
        << "soak did not inject at seed " << seed << ": " << golden;
    for (int t : {2, 4, 8}) {
      EXPECT_EQ(fault_soak(seed, t), golden)
          << "seed=" << seed << " pdes_threads=" << t;
    }
  }
}

TEST(PdesIdentity, CheckerCleanAndNonPerturbingUnderSharding) {
  // An attached observer forces single-worker rounds; the checker must see
  // the same event stream (clean run) and metrics must not move.
  auto run = [](int pdes_threads, bool with_checker) {
    check::Detector det;
    stencil::Jacobi2D p;
    p.nx = 64;
    p.ny = 64;
    StencilConfig cfg;
    cfg.iterations = 6;
    cfg.persistent_blocks = 12;
    cfg.functional = false;
    if (with_checker) cfg.observer = &det;
    vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
    spec.pdes_threads = pdes_threads;
    const auto r = stencil::run_jacobi2d(Variant::kCpuFree, spec, p, cfg);
    EXPECT_TRUE(!with_checker || det.clean()) << det.report_text();
    return cpufree::to_json(r.result.metrics);
  };
  const std::string golden = run(1, false);
  EXPECT_EQ(run(4, false), golden);
  EXPECT_EQ(run(4, true), golden) << "checker perturbed a sharded run";
}

TEST(PdesIdentity, LedgerScenariosMatchSerialAtFourShards) {
  // topo_test's generated ledger scenarios under the sharded engine:
  // admissions cross into the serialized phase and completion wakes run on
  // the coordinator, so every completion instant must equal the serial
  // run's. The draws stay inside what the sharded engine orders exactly:
  //  * Sparse scenarios of flights at least one lookahead window long. The
  //    serialized phase runs a window's admissions back to back, so a dense
  //    scenario can see one admission pull another flight's landing into
  //    the already-drained part of the window; that wake then fires after a
  //    later admission and the two engines diverge.
  //  * Link windows on the PCIe tree only. Its routes are all contended, so
  //    every fault-schedule consult happens in the serialized phase; the
  //    cluster's exclusive lanes would consult it from shard threads.
  using ledger_scenarios::Box;
  for (const Box box : {Box::kCappedPcieTree, Box::kMultiNode}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      vgpu::MachineSpec spec = ledger_scenarios::machine(box, seed);
      if (box == Box::kMultiNode) spec.faults.rate = 0.0;
      const auto transfers =
          ledger_scenarios::generate(seed, spec.num_devices, 10, 65536.0);
      const auto serial = ledger_scenarios::run(spec, transfers);
      spec.pdes_threads = 4;
      EXPECT_EQ(ledger_scenarios::run(spec, transfers), serial)
          << "box=" << static_cast<int>(box) << " seed=" << seed;
    }
  }
}

// --- TimerToken lifecycle under both engines ---------------------------------

TEST(TimerToken, CancelReleasesPayloadImmediately) {
  sim::Engine eng;
  auto payload = std::make_shared<int>(42);
  EXPECT_EQ(payload.use_count(), 1);
  sim::TimerToken tok =
      eng.schedule_callback([payload] { (void)*payload; }, 1000);
  EXPECT_EQ(payload.use_count(), 2);
  tok.cancel();
  // The fix under test: the captured closure is dropped at cancel() time,
  // not when the dead queue entry is eventually popped.
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_FALSE(tok.armed());
  eng.run();
}

TEST(TimerToken, CancelAfterFireIsANoOp) {
  sim::Engine eng;
  int fired = 0;
  sim::TimerToken tok = eng.schedule_callback([&fired] { ++fired; }, 10);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(tok.armed());
  tok.cancel();  // must not crash, must not fire again
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(TimerToken, CancelledTimerLeavesNoTraceOnTime) {
  sim::Engine eng;
  sim::TimerToken tok = eng.schedule_callback([] {}, 5000);
  bool ran = false;
  (void)eng.schedule_callback([&ran] { ran = true; }, 10);
  tok.cancel();
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 10) << "dead entry advanced the clock";
}

sim::Task park_forever(sim::Engine& eng, sim::Flag& f) {
  const sim::Engine::WaitToken wt = eng.note_wait_begin(
      {"test_actor", "never_flag", &f, ">= 1",
       [&f] { return f.value(); }});
  co_await f.wait_geq(1);
  eng.note_wait_end(wt);
}

TEST(TimerToken, HangReportIgnoresCancelledCallbacks) {
  // A root parked on a never-set flag plus a sea of cancelled timers: the
  // run must end in a DeadlockError naming the real waiter — dead entries
  // are drained before the report, never counted as pending work.
  sim::Engine eng;
  sim::Flag never(eng, 0);
  eng.name_flag(&never, "never_flag");
  std::vector<sim::TimerToken> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(eng.schedule_callback([] { FAIL(); }, 1000 + i));
  }
  eng.spawn(park_forever(eng, never));
  for (auto& t : tokens) t.cancel();
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.stuck_tasks, 1u);
    EXPECT_NE(std::string(e.what()).find("never_flag"), std::string::npos)
        << e.what();
  }
}

struct CrossCancelState {
  sim::TimerToken token;
  bool fired = false;
};

sim::Task arm_on_shard0(sim::Engine& eng, CrossCancelState& st) {
  st.token = eng.schedule_callback([&st] { st.fired = true; }, 2000);
  co_return;
}

sim::Task cancel_from_shard1(sim::Engine& eng, CrossCancelState& st) {
  co_await eng.delay(500);
  st.token.cancel();  // cross-shard cancel, 1500 ns before expiry
}

TEST(TimerToken, CancelAcrossShardsWellBeforeExpiry) {
  // Cancel and expiry are far more than one lookahead window apart, so the
  // cancel deterministically wins regardless of worker interleaving.
  sim::Engine eng;
  eng.enable_sharding(sim::pdes::ShardPlan::per_device(2), 2,
                      /*lookahead=*/100);
  CrossCancelState st;
  eng.spawn_on(0, arm_on_shard0(eng, st));
  eng.spawn_on(1, cancel_from_shard1(eng, st));
  eng.run();
  EXPECT_FALSE(st.fired);
  EXPECT_FALSE(st.token.armed());
}

TEST(PdesEngine, SerialEngineUntouchedByDefault) {
  // pdes_threads=1 must not construct a sharded core at all.
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(4);
  ASSERT_EQ(spec.pdes_threads, 1);
  vgpu::Machine m(spec);
  EXPECT_FALSE(m.engine().sharded());
  vgpu::MachineSpec sharded = spec;
  sharded.pdes_threads = 4;
  vgpu::Machine m2(sharded);
  EXPECT_TRUE(m2.engine().sharded());
}

TEST(PdesEngine, EnableShardingRejectsLateAndDoubleCalls) {
  sim::Engine eng;
  eng.enable_sharding(sim::pdes::ShardPlan::per_device(2), 2, 100);
  EXPECT_THROW(eng.enable_sharding(sim::pdes::ShardPlan::per_device(2), 2, 100),
               std::logic_error);
  sim::Engine late;
  (void)late.schedule_callback([] {}, 1);
  EXPECT_THROW(late.enable_sharding(sim::pdes::ShardPlan::per_device(2), 2, 100),
               std::logic_error);
}

}  // namespace
