// Tests for the deterministic fault plane (src/fault/) and the device-side
// timeout/retry/degradation protocols built on it (DESIGN.md §10).
//
// Groups:
//   * schedule determinism: decisions are pure in (seed, site, id, counter)
//     — same seed replays bit-identically, class masks gate streams;
//   * inertness: a zero-rate config is byte-identical (metrics JSON) to a
//     machine without any fault config;
//   * recovery protocols: lost signals are re-pulled by the watchdog/retry
//     ladder with correct numerics; dropped put payloads whose flag is
//     silently superseded by the next iteration are caught by the shadow's
//     contiguity watermark; exhausted retries degrade to host-style polling
//     and still converge;
//   * checker composition: the race detector attached to a recovering run
//     stays clean (recovery publications carry the right happens-before);
//   * hang attribution: an unrecovered lost signal surfaces as a
//     DeadlockError naming the stuck actor, wait site and flag.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/detector.hpp"
#include "cpufree/halo.hpp"
#include "cpufree/metrics.hpp"
#include "fault/schedule.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "sweep/executor.hpp"
#include "test_machines.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace {

using cpufree::IterationProtocol;
using sim::Task;
using stencil::StencilConfig;
using stencil::Variant;
using vgpu::BlockGroup;
using vgpu::KernelCtx;
using vgpu::LaunchConfig;
using vgpu::Machine;
using vgpu::MachineSpec;
using vshmem::Sym;
using vshmem::World;

/// Runs one single-block kernel body per (device, fn) pair concurrently.
void run_on_devices(
    Machine& m,
    std::vector<std::pair<int, std::function<Task(KernelCtx&)>>> bodies) {
  for (auto& [dev, fn] : bodies) {
    std::vector<BlockGroup> groups;
    groups.push_back(BlockGroup{"test", 1, std::move(fn)});
    m.engine().spawn(vgpu::run_kernel(m, m.device(dev), 0, LaunchConfig{},
                                      std::move(groups)));
  }
  m.engine().run();
}

/// Short watchdog deadlines so the crafted protocol tests stay fast: first
/// attempt 1 us, +0.5 us linear backoff, 3 retries (total budget 7 us).
fault::Config fast_retry(std::uint64_t seed, double rate, std::uint32_t classes,
                         fault::Resilience res) {
  fault::Config cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  cfg.classes = classes;
  cfg.resilience = res;
  cfg.retry.max_retries = 3;
  cfg.retry.timeout = 1000;
  cfg.retry.backoff = 500;
  return cfg;
}

// --- schedule determinism ------------------------------------------------------

TEST(Schedule, SameSeedReplaysBitIdentically) {
  fault::Config cfg;
  cfg.seed = 7;
  cfg.rate = 0.3;
  fault::Schedule a(cfg);
  fault::Schedule b(cfg);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.roll(fault::Site::kPutDrop, 5),
              b.roll(fault::Site::kPutDrop, 5));
    EXPECT_EQ(a.roll(fault::Site::kSignalLost, 9),
              b.roll(fault::Site::kSignalLost, 9));
  }
  EXPECT_EQ(a.stats().injected, b.stats().injected);
  EXPECT_GT(a.stats().injected, 0);
}

TEST(Schedule, WindowDecisionsArePure) {
  fault::Config cfg;
  cfg.seed = 3;
  cfg.rate = 0.5;
  const fault::Schedule s(cfg);
  for (sim::Nanos t : {sim::Nanos{0}, sim::usec(100), sim::usec(399),
                       sim::usec(401), sim::usec(4000)}) {
    // Re-consulting at the same simulated time never changes the answer
    // (cost recomputation must not double-roll).
    EXPECT_EQ(s.link_scale(2, t), s.link_scale(2, t));
    EXPECT_EQ(s.stall_scale_at(1, t), s.stall_scale_at(1, t));
  }
}

TEST(Schedule, ClassMaskGatesStreams) {
  fault::Config cfg;
  cfg.seed = 11;
  cfg.rate = 1.0;  // every consult of an enabled class injects
  cfg.classes = fault::kClassSignalLost;
  fault::Schedule s(cfg);
  EXPECT_TRUE(s.roll(fault::Site::kSignalLost, 0));
  EXPECT_FALSE(s.roll(fault::Site::kPutDrop, 0));
  EXPECT_FALSE(s.roll(fault::Site::kPutDup, 0));
  EXPECT_EQ(s.link_scale(0, 0), 1.0);
  EXPECT_EQ(s.stall_scale_at(0, 0), 1.0);
  EXPECT_EQ(s.stats().injected, 1);
}

TEST(Schedule, ZeroRateIsStructurallyInert) {
  fault::Config cfg;
  cfg.seed = 42;  // a seed alone must not enable anything
  fault::Schedule s(cfg);
  EXPECT_FALSE(s.enabled());
  EXPECT_FALSE(s.roll(fault::Site::kPutDrop, 0));
  EXPECT_EQ(s.link_scale(0, sim::usec(100)), 1.0);
  EXPECT_EQ(s.stats().injected, 0);
}

// --- inertness end to end ------------------------------------------------------

std::string stencil_metrics_json(const MachineSpec& spec) {
  stencil::Jacobi2D p;
  p.nx = 64;
  p.ny = 64;
  StencilConfig cfg;
  cfg.iterations = 5;
  cfg.persistent_blocks = 4;
  const stencil::RunOutput out = stencil::run_jacobi2d(Variant::kCpuFree, spec,
                                                       p, cfg);
  EXPECT_TRUE(out.verified);
  return cpufree::to_json(out.result.metrics);
}

TEST(FaultPlane, ZeroRateByteIdenticalToNoFaultConfig) {
  const MachineSpec plain = MachineSpec::hgx_a100(2);
  MachineSpec zero_rate = MachineSpec::hgx_a100(2);
  zero_rate.faults.seed = 42;
  zero_rate.faults.rate = 0.0;
  zero_rate.faults.resilience = fault::Resilience::kRetry;
  EXPECT_EQ(stencil_metrics_json(plain), stencil_metrics_json(zero_rate));
}

// --- end-to-end determinism ----------------------------------------------------

std::string faulty_stencil_json(std::uint64_t seed) {
  MachineSpec spec = MachineSpec::hgx_a100(4);
  spec.faults.seed = seed;
  spec.faults.rate = 0.05;
  spec.faults.resilience = fault::Resilience::kRetry;
  stencil::Jacobi2D p;
  p.nx = 128;
  p.ny = 128;
  StencilConfig cfg;
  cfg.iterations = 20;
  cfg.persistent_blocks = 4;
  const stencil::RunOutput out = stencil::run_jacobi2d(Variant::kCpuFree, spec,
                                                       p, cfg);
  EXPECT_TRUE(out.verified) << "seed " << seed;
  return cpufree::to_json(out.result.metrics);
}

TEST(FaultPlane, SameSeedBitIdenticalAcrossRunsAndThreadCounts) {
  // Back-to-back runs replay exactly (injection decisions are counter-based,
  // never wall-clock-based)...
  EXPECT_EQ(faulty_stencil_json(0), faulty_stencil_json(0));
  // ...and sweep worker count cannot perturb them: each job owns its
  // Machine (and thus its Schedule), so 1-thread and 4-thread executions of
  // the same job list produce byte-identical metrics.
  auto sweep_jsons = [](int threads) {
    std::array<std::string, 4> out;
    sweep::Executor ex(sweep::Options{threads, /*progress=*/false});
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      ex.add("seed" + std::to_string(seed), {}, [seed, &out] {
        out[seed] = faulty_stencil_json(seed);
        return sweep::RunResult{};
      });
    }
    (void)ex.run();
    return out;
  };
  const std::array<std::string, 4> single = sweep_jsons(1);
  const std::array<std::string, 4> quad = sweep_jsons(4);
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_FALSE(single[i].empty());
    EXPECT_EQ(single[i], quad[i]) << "seed " << i;
  }
}

// --- recovery protocols --------------------------------------------------------

/// Every signal delivery is lost (rate 1, kClassSignalLost only): the payload
/// still lands, the flag never advances, and only the watchdog/retry ladder
/// can release the waiter — with the right value visible.
TEST(Recovery, LostSignalWatchdogRetryRecovers) {
  MachineSpec spec = test_machines::device_protocol(2);
  spec.faults = fast_retry(5, 1.0, fault::kClassSignalLost,
                           fault::Resilience::kRetry);
  Machine m(spec);
  World w(m);
  Sym<double> box = w.alloc<double>(2, "box");  // [0] inbox, [1] outbox
  auto sig = w.alloc_signals(1, "ready");
  IterationProtocol proto(w, *sig);
  double seen = -1.0;
  run_on_devices(
      m, {{0,
           [&](KernelCtx& k) -> Task {
             box.on(0)[1] = 7.0;
             co_await proto.put_and_signal(k, box, /*src_off=*/1,
                                           /*dst_off=*/0, /*count=*/1,
                                           /*flag=*/0, /*iter=*/1,
                                           /*dst_pe=*/1);
           }},
          {1, [&](KernelCtx& k) -> Task {
             co_await proto.wait_iteration(k, /*flag=*/0, /*iter=*/1);
             seen = box.on(1)[0];
           }}});
  EXPECT_EQ(seen, 7.0);
  EXPECT_GE(m.faults().stats().watchdog_fires, 1);
  EXPECT_GE(m.faults().stats().retries, 1);
  EXPECT_EQ(m.faults().stats().degraded_iters, 0);
}

/// A sender stalled past the whole retry budget exhausts the ladder; with
/// kRetryDegrade the waiter drops to host-style polling (sticky per PE) and
/// still converges with correct numerics.
TEST(Recovery, RetriesExhaustedDegradationConverges) {
  MachineSpec spec = test_machines::device_protocol(2);
  // Resilient waits arm only for signal-coupled masks (window-only and
  // empty masks cannot lose updates, so their waits stay plain). Arm a
  // signal-coupled class at a negligible rate: the ladder runs, yet the only
  // "fault" is the sender's stall.
  spec.faults = fast_retry(0, 1e-9, fault::kClassSignalLost,
                           fault::Resilience::kRetryDegrade);
  Machine m(spec);
  World w(m);
  Sym<double> box = w.alloc<double>(2, "box");
  auto sig = w.alloc_signals(1, "ready");
  IterationProtocol proto(w, *sig);
  double seen = -1.0;
  run_on_devices(
      m, {{0,
           [&](KernelCtx& k) -> Task {
             // Well past the total watchdog budget (1 + 1.5 + 2 + 2.5 us).
             co_await k.busy(sim::usec(20), sim::Cat::kCompute, "slow_sender");
             box.on(0)[1] = 9.0;
             co_await proto.put_and_signal(k, box, 1, 0, 1, 0, 1, 1);
           }},
          {1, [&](KernelCtx& k) -> Task {
             co_await proto.wait_iteration(k, 0, 1);
             seen = box.on(1)[0];
           }}});
  EXPECT_EQ(seen, 9.0);
  EXPECT_GE(m.faults().stats().watchdog_fires, 4);  // all attempts expired
  EXPECT_GE(m.faults().stats().degraded_iters, 1);
  EXPECT_TRUE(m.faults().degraded(1));
  EXPECT_FALSE(m.faults().degraded(0));
}

/// The silent-supersede hazard: a dropped halo put whose flag is superseded
/// by the NEXT iteration's signal releases the waiter on time with stale
/// data. Unprotected runs fail (wrong numerics, or a hang if the drop hits
/// the last iteration); the contiguity watermark + retry re-pulls the
/// missing payload and the run verifies.
TEST(Recovery, DroppedPutGapIsCaughtByContiguityWatermark) {
  stencil::Jacobi2D p;
  p.nx = 128;
  p.ny = 128;
  StencilConfig cfg;
  cfg.iterations = 20;
  cfg.persistent_blocks = 4;
  auto run = [&](fault::Resilience res) {
    MachineSpec spec = MachineSpec::hgx_a100(2);
    spec.faults.seed = 1;
    spec.faults.rate = 0.1;
    spec.faults.classes = fault::kClassPutDrop;
    spec.faults.resilience = res;
    return stencil::run_jacobi2d(Variant::kCpuFree, spec, p, cfg);
  };

  const stencil::RunOutput protected_run = run(fault::Resilience::kRetry);
  EXPECT_TRUE(protected_run.verified);
  EXPECT_GT(protected_run.result.metrics.faults_injected, 0);
  EXPECT_GE(protected_run.result.metrics.retries, 1);

  bool unprotected_ok = false;
  try {
    unprotected_ok = run(fault::Resilience::kNone).verified;
  } catch (const sim::DeadlockError&) {
    // A drop on the final iteration has no superseding signal: also a
    // failure, just a loud one.
  }
  EXPECT_FALSE(unprotected_ok);
}

// --- checker composition -------------------------------------------------------

/// Recovery publications must carry the delivering wire's happens-before
/// epoch: the race detector attached to a recovering faulty run stays clean.
TEST(Checker, NoFalseRacesUnderRecovery) {
  check::Detector det;
  MachineSpec spec = MachineSpec::hgx_a100(2);
  spec.faults.seed = 0;
  spec.faults.rate = 0.05;
  spec.faults.resilience = fault::Resilience::kRetry;
  stencil::Jacobi2D p;
  p.nx = 128;
  p.ny = 128;
  StencilConfig cfg;
  cfg.iterations = 20;
  cfg.persistent_blocks = 4;
  cfg.observer = &det;
  const stencil::RunOutput out = stencil::run_jacobi2d(Variant::kCpuFree, spec,
                                                       p, cfg);
  EXPECT_TRUE(out.verified);
  EXPECT_GT(out.result.metrics.faults_injected, 0);
  EXPECT_TRUE(det.clean()) << det.report_text();
}

// --- hang attribution ----------------------------------------------------------

/// Without a resilience rung, a never-delivered signal is a real hang; the
/// engine's end-of-run report must name the stuck actor, the wait site and
/// the flag it blocked on.
TEST(HangReport, NamesStuckActorAndWaitSite) {
  Machine m(test_machines::device_protocol(2));
  World w(m);
  auto sig = w.alloc_signals(1, "lost");
  std::vector<BlockGroup> g;
  g.push_back(BlockGroup{"waiter", 1, [&](KernelCtx& k) -> Task {
                           co_await w.signal_wait_until(k, *sig, 0,
                                                        sim::Cmp::kGe, 1);
                         }});
  m.engine().spawn(vgpu::run_kernel(m, m.device(1), 0, LaunchConfig{},
                                    std::move(g)));
  try {
    m.engine().run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked on"), std::string::npos) << what;
    EXPECT_NE(what.find("signal_wait"), std::string::npos) << what;
    EXPECT_NE(what.find("lost0@pe1"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 1"), std::string::npos) << what;
  }
}

/// The two-kernel variant's per-device pair flags carry names without a
/// checker attached, so its hang report names them instead of printing heap
/// addresses, and two runs give the same text.
TEST(HangReport, TwoKernelPairFlagsAreNamed) {
  const auto hang_report = [] {
    MachineSpec spec = MachineSpec::hgx_a100(2);
    spec.faults.seed = 1;
    spec.faults.rate = 1.0;
    spec.faults.classes = fault::kClassSignalLost;
    spec.faults.resilience = fault::Resilience::kNone;
    stencil::Jacobi2D p;
    p.nx = 64;
    p.ny = 64;
    StencilConfig cfg;
    cfg.iterations = 4;
    cfg.functional = false;
    try {
      (void)stencil::run_jacobi2d(Variant::kCpuFreeTwoKernels, spec, p, cfg);
    } catch (const sim::DeadlockError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string first = hang_report();
  EXPECT_NE(first.find("comm_done@pe0"), std::string::npos) << first;
  EXPECT_EQ(first.find("<flag@"), std::string::npos) << first;
  EXPECT_EQ(hang_report(), first);
}

}  // namespace
