// Tests for the src/check/ happens-before race & deadlock checker.
//
// Three groups:
//   * seeded-bug fixtures: tiny hand-written kernels with a known
//     synchronization defect (dropped signal wait, nbi source reuse without
//     quiet, missing barrier participant, mutual signal wait) must be flagged
//     with the right verdict and attribution — no false negatives;
//   * clean suite: every shipping stencil/CG/dacelite variant runs clean
//     under the checker — no false positives;
//   * non-perturbation: attaching the checker never changes simulated time;
//     metrics serialize byte-for-byte identically with it on and off.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/detector.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/transforms.hpp"
#include "hostmpi/comm.hpp"
#include "sim/engine.hpp"
#include "exec/policy.hpp"
#include "solvers/cg.hpp"
#include "solvers/sparse_cg.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

using check::Detector;
using check::Verdict;
using sim::Cmp;
using sim::Task;
using vgpu::KernelCtx;
using vgpu::LaunchConfig;
using vgpu::Machine;
using vgpu::MachineSpec;
using vshmem::SignalOp;
using vshmem::Sym;
using vshmem::World;

/// Runs one single-block kernel body per (device, fn) pair concurrently.
void run_on_devices(
    Machine& m,
    std::vector<std::pair<int, std::function<Task(KernelCtx&)>>> bodies) {
  for (auto& [dev, fn] : bodies) {
    std::vector<vgpu::BlockGroup> groups;
    groups.push_back(vgpu::BlockGroup{"test", 1, std::move(fn)});
    m.engine().spawn(vgpu::run_kernel(m, m.device(dev), 0, LaunchConfig{},
                                      std::move(groups)));
  }
  m.engine().run();
}

// --- seeded bugs: races --------------------------------------------------------

/// One signaled halo exchange, PE0 -> PE1. When `receiver_waits` the receiver
/// follows the paper's protocol (signal_wait_until before touching the halo);
/// otherwise it reads the inbox immediately — the classic dropped-wait bug.
Verdict run_halo_exchange(bool receiver_waits, std::string* report) {
  Machine m(MachineSpec::hgx_a100(2));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  Sym<double> box = w.alloc<double>(2, "box");  // [0] inbox, [1] outbox
  auto sig = w.alloc_signals(1, "halo_ready");
  auto sender = [&](KernelCtx& k) -> Task {
    box.on(0)[1] = 7.0;
    k.obs_access(sim::MemRange::of(box.on(0), 1, 1), /*is_write=*/true,
                 "pack_outbox");
    co_await w.putmem_signal_nbi(k, box, /*src_off=*/1, /*dst_off=*/0,
                                 /*count=*/1, *sig, 0, 1, SignalOp::kSet, 1);
  };
  auto receiver = [&, receiver_waits](KernelCtx& k) -> Task {
    if (receiver_waits) {
      co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 1);
    }
    k.obs_access(sim::MemRange::of(box.on(1), 0, 1), /*is_write=*/false,
                 "read_inbox");
    co_return;
  };
  run_on_devices(m, {{0, sender}, {1, receiver}});
  if (report != nullptr) *report = det.report_text();
  return det.verdict();
}

TEST(CheckRace, DroppedSignalWaitIsFlagged) {
  std::string report;
  EXPECT_EQ(run_halo_exchange(/*receiver_waits=*/false, &report),
            Verdict::kRace);
  // Attribution names the buffer and both sides of the conflict.
  EXPECT_NE(report.find("box"), std::string::npos) << report;
  EXPECT_NE(report.find("read_inbox"), std::string::npos) << report;
}

TEST(CheckRace, SignalWaitOrdersHaloRead) {
  std::string report;
  EXPECT_EQ(run_halo_exchange(/*receiver_waits=*/true, &report),
            Verdict::kPass)
      << report;
}

/// Non-blocking put, then the issuer reuses the SOURCE buffer. Without an
/// intervening quiet the payload may still be on the wire — a race the real
/// NVSHMEM spec also calls out.
Verdict run_source_reuse(bool with_quiet, std::string* report) {
  Machine m(MachineSpec::hgx_a100(2));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  Sym<double> a = w.alloc<double>(16, "staging");
  auto body = [&, with_quiet](KernelCtx& k) -> Task {
    k.obs_access(sim::MemRange::of(a.on(0), 0, 4), /*is_write=*/true,
                 "fill_source");
    co_await w.putmem_nbi(k, a, /*src_off=*/0, /*dst_off=*/8, /*count=*/4, 1);
    if (with_quiet) co_await w.quiet(k);
    k.obs_access(sim::MemRange::of(a.on(0), 0, 4), /*is_write=*/true,
                 "reuse_source");
  };
  run_on_devices(m, {{0, body}});
  if (report != nullptr) *report = det.report_text();
  return det.verdict();
}

TEST(CheckRace, NbiSourceReuseWithoutQuietIsFlagged) {
  std::string report;
  EXPECT_EQ(run_source_reuse(/*with_quiet=*/false, &report), Verdict::kRace);
  EXPECT_NE(report.find("staging"), std::string::npos) << report;
  EXPECT_NE(report.find("reuse_source"), std::string::npos) << report;
}

TEST(CheckRace, QuietMakesSourceReuseSafe) {
  std::string report;
  EXPECT_EQ(run_source_reuse(/*with_quiet=*/true, &report), Verdict::kPass)
      << report;
}

/// Strided `iput` of a column paired with a `signal_op` but no `quiet()`.
/// The receiver side is safe in-model (same-wire ops are FIFO, so the signal
/// covers the payload — see DESIGN §8 on this over-approximation), but the
/// SENDER has acquired nothing: rewriting the just-sent column races with
/// the wire still reading it. `quiet()` between iput and reuse fixes it.
Verdict run_iput_signal(bool with_quiet, std::string* report) {
  Machine m(MachineSpec::hgx_a100(2));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  Sym<double> grid = w.alloc<double>(16, "grid");  // 4x4 row-major
  auto sig = w.alloc_signals(1, "col_ready");
  auto sender = [&, with_quiet](KernelCtx& k) -> Task {
    co_await w.iput(k, grid, /*src_off=*/1, /*src_stride=*/4, /*dst_off=*/2,
                    /*dst_stride=*/4, /*count=*/4, 1);
    co_await w.signal_op(k, *sig, 0, 1, SignalOp::kSet, 1);
    if (with_quiet) co_await w.quiet(k);
    k.obs_access(sim::MemRange::of(grid.on(0), 1, 1), /*is_write=*/true,
                 "rewrite_sent_column");
  };
  auto receiver = [&](KernelCtx& k) -> Task {
    co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 1);
    k.obs_access(sim::MemRange::of(grid.on(1), 2, 1), /*is_write=*/false,
                 "read_halo_column");
  };
  run_on_devices(m, {{0, sender}, {1, receiver}});
  if (report != nullptr) *report = det.report_text();
  return det.verdict();
}

TEST(CheckRace, IputWithSignalButNoQuietIsFlagged) {
  std::string report;
  EXPECT_EQ(run_iput_signal(/*with_quiet=*/false, &report), Verdict::kRace);
  EXPECT_NE(report.find("grid"), std::string::npos) << report;
  EXPECT_NE(report.find("rewrite_sent_column"), std::string::npos) << report;
}

TEST(CheckRace, QuietAfterIputMakesColumnReuseSafe) {
  std::string report;
  EXPECT_EQ(run_iput_signal(/*with_quiet=*/true, &report), Verdict::kPass)
      << report;
}

/// The histogram merge protocol, with its synchronization optionally broken:
/// a contributor PE puts its per-owner partial row into the owner's inbox and
/// signals; the owner folds the inbox into its bin slice. When `owner_waits`
/// the owner observes the signal first (the shipping protocol); otherwise the
/// two PEs update the same bins with no happens-before — the incoming put
/// races with the owner's merge.
Verdict run_histogram_merge(bool owner_waits, std::string* report) {
  Machine m(MachineSpec::hgx_a100(2));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  constexpr std::size_t kBins = 8;
  Sym<double> bins = w.alloc<double>(kBins, "bin_slice");
  Sym<double> inbox = w.alloc<double>(kBins, "bin_inbox");
  auto sig = w.alloc_signals(1, "partial_ready");
  auto contributor = [&](KernelCtx& k) -> Task {
    // Pre-aggregate locally, then one signaled put of the touched range.
    k.obs_access(sim::MemRange::of(inbox.on(1), 0, kBins), /*is_write=*/true,
                 "accumulate_partials");
    co_await w.putmem_signal_nbi(k, inbox, /*src_off=*/0, /*dst_off=*/0,
                                 kBins, *sig, 0, 1, SignalOp::kSet, 0);
  };
  auto owner = [&, owner_waits](KernelCtx& k) -> Task {
    if (owner_waits) {
      co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 1);
    }
    k.obs_access(sim::MemRange::of(inbox.on(0), 0, kBins), /*is_write=*/false,
                 "merge_read_inbox");
    k.obs_access(sim::MemRange::of(bins.on(0), 0, kBins), /*is_write=*/true,
                 "merge_bin_updates");
    co_return;
  };
  run_on_devices(m, {{0, owner}, {1, contributor}});
  if (report != nullptr) *report = det.report_text();
  return det.verdict();
}

TEST(CheckRace, HistogramMergeWithoutHappensBeforeIsFlagged) {
  std::string report;
  EXPECT_EQ(run_histogram_merge(/*owner_waits=*/false, &report),
            Verdict::kRace);
  // Attribution names the contended inbox and the merge-side access.
  EXPECT_NE(report.find("bin_inbox"), std::string::npos) << report;
  EXPECT_NE(report.find("merge_read_inbox"), std::string::npos) << report;
}

TEST(CheckRace, SignaledPartialRowOrdersHistogramMerge) {
  std::string report;
  EXPECT_EQ(run_histogram_merge(/*owner_waits=*/true, &report), Verdict::kPass)
      << report;
}

// --- seeded bugs: deadlocks ----------------------------------------------------

// --- released addresses --------------------------------------------------------
//
// A job server frees each finished job's memory and flags, and the next
// job's allocations can land at the same addresses. Observer::on_mem_release
// must make such an address a new object for the checker.

/// Actor A writes a block; the block is released and re-allocated at the
/// same base (or not released, for the control); then unrelated actor B
/// reads it.
Verdict read_after_recycled_block(bool release) {
  Detector det;
  alignas(8) static const char storage[64] = {};
  const void* base = storage;
  const sim::MemRange range{reinterpret_cast<std::uintptr_t>(base), 0, 8};
  const sim::Actor a = sim::Actor::group(0, 1, 0);
  const sim::Actor b = sim::Actor::group(1, 2, 0);
  det.on_mem_block(base, 64, "j1.u0@pe0");
  det.on_access(a, range, /*is_write=*/true, "old_job_write");
  if (release) det.on_mem_release(base);
  det.on_mem_block(base, 64, "j2.u0@pe0");
  det.on_access(b, range, /*is_write=*/false, "new_job_read");
  return det.verdict();
}

TEST(CheckRelease, RecycledBlockStartsWithoutHistory) {
  EXPECT_EQ(read_after_recycled_block(/*release=*/true), Verdict::kPass);
  // Control: without the release hook the dead job's write races the read.
  EXPECT_EQ(read_after_recycled_block(/*release=*/false), Verdict::kRace);
}

/// Actor A writes a live block and updates a flag; the flag is released (or
/// not) and re-named as a new job's flag; actor B completes a wait on it and
/// reads A's block.
Verdict read_after_recycled_flag(bool release) {
  Detector det;
  alignas(8) static const char storage[64] = {};
  alignas(8) static const char flag_storage[8] = {};
  const void* base = storage;
  const void* flag = flag_storage;
  const sim::MemRange range{reinterpret_cast<std::uintptr_t>(base), 0, 8};
  const sim::Actor a = sim::Actor::group(0, 1, 0);
  const sim::Actor b = sim::Actor::group(1, 2, 0);
  det.on_mem_block(base, 64, "shared@pe0");
  det.on_flag_name(flag, "j1.sig0@pe0");
  det.on_access(a, range, /*is_write=*/true, "old_job_write");
  det.on_signal_update(a, flag, 1, "old_job_signal");
  if (release) det.on_mem_release(flag);
  det.on_flag_name(flag, "j2.sig0@pe0");
  det.on_signal_wait_begin(b, flag, Cmp::kGe, 0, "new_job_wait");
  det.on_signal_wait_end(b, flag);
  det.on_access(b, range, /*is_write=*/false, "new_job_read");
  return det.verdict();
}

TEST(CheckRelease, RecycledFlagCarriesNoOldClock) {
  // The new flag was never signalled by A, so B's wait orders nothing
  // after A's write: the read races.
  EXPECT_EQ(read_after_recycled_flag(/*release=*/true), Verdict::kRace);
  // Control: without the release hook the dead flag's clock hides the race.
  EXPECT_EQ(read_after_recycled_flag(/*release=*/false), Verdict::kPass);
}

TEST(CheckDeadlock, MissingBarrierParticipantIsCounted) {
  Machine m(MachineSpec::hgx_a100(3));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  auto arriver = [&](KernelCtx& k) -> Task { co_await w.sync_all(k); };
  auto absent = [](KernelCtx&) -> Task { co_return; };
  for (auto& [dev, fn] :
       std::vector<std::pair<int, std::function<Task(KernelCtx&)>>>{
           {0, arriver}, {1, arriver}, {2, absent}}) {
    std::vector<vgpu::BlockGroup> groups;
    groups.push_back(vgpu::BlockGroup{"test", 1, std::move(fn)});
    m.engine().spawn(vgpu::run_kernel(m, m.device(dev), 0, LaunchConfig{},
                                      std::move(groups)));
  }
  EXPECT_THROW(m.engine().run(), sim::DeadlockError);
  EXPECT_EQ(det.verdict(), Verdict::kDeadlock);
  const std::string report = det.report_text();
  EXPECT_NE(report.find("2 of 3 arrived"), std::string::npos) << report;
  EXPECT_NE(report.find("sync_all"), std::string::npos) << report;
}

TEST(CheckDeadlock, MutualSignalWaitCycleIsAttributed) {
  Machine m(MachineSpec::hgx_a100(2));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  auto sig = w.alloc_signals(1, "turn");
  auto body = [&](int me) {
    return [&, me](KernelCtx& k) -> Task {
      const int other = 1 - me;
      // Round 1 completes: each PE signals its peer, so the analyzer learns
      // who produces each flag. Round 2's signals are never sent.
      co_await w.signal_op(k, *sig, 0, 1, SignalOp::kSet, other);
      co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 1);
      co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 2);
    };
  };
  for (int d : {0, 1}) {
    std::vector<vgpu::BlockGroup> groups;
    groups.push_back(vgpu::BlockGroup{"test", 1, body(d)});
    m.engine().spawn(vgpu::run_kernel(m, m.device(d), 0, LaunchConfig{},
                                      std::move(groups)));
  }
  EXPECT_THROW(m.engine().run(), sim::DeadlockError);
  EXPECT_EQ(det.verdict(), Verdict::kDeadlock);
  const std::string report = det.report_text();
  EXPECT_NE(report.find("wait-for cycle"), std::string::npos) << report;
  EXPECT_NE(report.find("turn"), std::string::npos) << report;
}

TEST(CheckDeadlock, LostSignalIsCalledOut) {
  Machine m(MachineSpec::hgx_a100(2));
  Detector det;
  m.engine().set_observer(&det);
  World w(m);
  auto sig = w.alloc_signals(1, "never_sent");
  auto waiter = [&](KernelCtx& k) -> Task {
    co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 1);
  };
  std::vector<vgpu::BlockGroup> groups;
  groups.push_back(vgpu::BlockGroup{"test", 1, waiter});
  m.engine().spawn(
      vgpu::run_kernel(m, m.device(1), 0, LaunchConfig{}, std::move(groups)));
  EXPECT_THROW(m.engine().run(), sim::DeadlockError);
  const std::string report = det.report_text();
  EXPECT_NE(report.find("never updated by anyone"), std::string::npos)
      << report;
}

// --- clean suite: no false positives on shipping code --------------------------

constexpr stencil::Variant kAllSeven[] = {
    stencil::Variant::kBaselineCopy,    stencil::Variant::kBaselineOverlap,
    stencil::Variant::kBaselineP2P,     stencil::Variant::kBaselineNvshmem,
    stencil::Variant::kCpuFree,         stencil::Variant::kCpuFreePerks,
    stencil::Variant::kCpuFreeTwoKernels};

TEST(CheckClean, AllStencilVariantsRunClean) {
  for (stencil::Variant v : kAllSeven) {
    Detector det;
    stencil::Jacobi2D p;
    p.nx = 64;
    p.ny = 64;
    stencil::StencilConfig cfg;
    cfg.iterations = 6;
    cfg.persistent_blocks = 12;
    cfg.observer = &det;
    (void)stencil::run_jacobi2d(v, MachineSpec::hgx_a100(2), p, cfg);
    EXPECT_TRUE(det.clean())
        << stencil::variant_name(v) << ": " << det.report_text();
  }
}

TEST(CheckClean, BothCgVariantsRunClean) {
  for (const bool cpu_free : {false, true}) {
    Detector det;
    solvers::CgConfig cfg;
    cfg.nx = 24;
    cfg.ny = 24;
    cfg.max_iterations = 20;
    cfg.persistent_blocks = 12;
    cfg.observer = &det;
    const auto spec = MachineSpec::hgx_a100(2);
    (void)(cpu_free ? solvers::run_cg_cpufree(spec, cfg)
                    : solvers::run_cg_baseline(spec, cfg));
    EXPECT_TRUE(det.clean()) << (cpu_free ? "cpufree" : "baseline") << ": "
                             << det.report_text();
  }
}

TEST(CheckClean, DaceliteBackendsRunClean) {
  for (const bool cpu_free : {false, true}) {
    Detector det;
    auto prog = dacelite::make_jacobi1d(1u << 12, 2, 8);
    Machine m(MachineSpec::hgx_a100(2));
    m.engine().set_observer(&det);
    World w(m);
    dacelite::ExecOptions opt;
    if (cpu_free) {
      dacelite::to_cpu_free(prog.sdfg);
      dacelite::ProgramData data(w, prog.sdfg, true);
      (void)dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
    } else {
      dacelite::apply_gpu_transform(prog.sdfg);
      hostmpi::Comm comm(m);
      dacelite::ProgramData data(w, prog.sdfg, true);
      (void)dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
    }
    EXPECT_TRUE(det.clean()) << (cpu_free ? "persistent" : "discrete") << ": "
                             << det.report_text();
  }
}

TEST(CheckClean, HistogramRunsCleanUnderEveryPolicyTriple) {
  const exec::Plan plans[] = {
      {exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kStagedCopy,
       exec::SyncPolicy::kHostBarrier, "hist"},
      {exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kOverlapStreams,
       exec::SyncPolicy::kHostBarrier, "hist"},
      {exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kPeerStore,
       exec::SyncPolicy::kHostBarrier, "hist_p2p"},
      {exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kSignaledPut,
       exec::SyncPolicy::kStreamSync, "hist_nvshmem"},
      {exec::LaunchPolicy::kPersistent, exec::CommPolicy::kSignaledPut,
       exec::SyncPolicy::kIterationFlags, "hist_cpufree"},
      {exec::LaunchPolicy::kPersistentPair, exec::CommPolicy::kSignaledPut,
       exec::SyncPolicy::kIterationFlags, "hist_cpufree"},
  };
  for (const exec::Plan& plan : plans) {
    // Skew 2 concentrates the updates: the hot owner's merge is exactly the
    // contended path the seeded-bug fixture above breaks on purpose.
    Detector det;
    workloads::HistogramConfig cfg;
    cfg.bins = 61;
    cfg.keys_per_round = 192;
    cfg.rounds = 3;
    cfg.skew = 2;
    cfg.threads_per_block = 128;
    cfg.persistent_blocks = 8;
    cfg.observer = &det;
    const workloads::HistogramResult out =
        workloads::run_histogram(MachineSpec::hgx_a100(2), cfg, plan);
    EXPECT_TRUE(det.clean()) << exec::name(plan.comm) << ": " << det.report_text();
    EXPECT_EQ(out.bins, workloads::histogram_reference(cfg, 2))
        << exec::name(plan.comm);
  }
}

TEST(CheckClean, SparseCgRunsCleanWithImbalancedRows) {
  const exec::Plan plans[] = {
      {exec::LaunchPolicy::kPersistent, exec::CommPolicy::kSignaledPut,
       exec::SyncPolicy::kIterationFlags, "sparse_cg_cpufree"},
      {exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kStagedCopy,
       exec::SyncPolicy::kHostBarrier, "sparse_cg_baseline"},
  };
  for (const exec::Plan& plan : plans) {
    Detector det;
    solvers::SparseCgConfig cfg;
    cfg.nx = 16;
    cfg.ny = 16;
    cfg.max_iterations = 8;
    cfg.imbalance = 4.0;  // deliberate straggler rank
    cfg.observer = &det;
    (void)solvers::run_sparse_cg(MachineSpec::hgx_a100(2), cfg, plan);
    EXPECT_TRUE(det.clean()) << exec::name(plan.comm) << ": " << det.report_text();
  }
}

// --- non-perturbation -----------------------------------------------------------

TEST(CheckNonPerturbation, StencilMetricsBitIdenticalWithCheckerAttached) {
  for (stencil::Variant v :
       {stencil::Variant::kCpuFree, stencil::Variant::kBaselineOverlap}) {
    auto run = [v](sim::Observer* obs) {
      stencil::Jacobi2D p;
      p.nx = 64;
      p.ny = 64;
      stencil::StencilConfig cfg;
      cfg.iterations = 10;
      cfg.persistent_blocks = 12;
      cfg.observer = obs;
      return stencil::run_jacobi2d(v, MachineSpec::hgx_a100(2), p, cfg);
    };
    const auto off = run(nullptr);
    Detector det;
    const auto on = run(&det);
    EXPECT_TRUE(det.clean()) << det.report_text();
    EXPECT_EQ(cpufree::to_json(off.result.metrics),
              cpufree::to_json(on.result.metrics))
        << stencil::variant_name(v)
        << ": attaching the checker changed simulated behaviour";
    EXPECT_EQ(off.result.final_parity, on.result.final_parity);
    EXPECT_EQ(off.verified, on.verified);
  }
}

TEST(CheckNonPerturbation, CgMetricsBitIdenticalWithCheckerAttached) {
  auto run = [](sim::Observer* obs) {
    solvers::CgConfig cfg;
    cfg.nx = 24;
    cfg.ny = 24;
    cfg.max_iterations = 20;
    cfg.persistent_blocks = 12;
    cfg.observer = obs;
    return solvers::run_cg_cpufree(MachineSpec::hgx_a100(2), cfg);
  };
  const auto off = run(nullptr);
  Detector det;
  const auto on = run(&det);
  EXPECT_TRUE(det.clean()) << det.report_text();
  EXPECT_EQ(cpufree::to_json(off.metrics), cpufree::to_json(on.metrics));
  EXPECT_EQ(off.final_rr, on.final_rr);
  EXPECT_EQ(off.iterations_run, on.iterations_run);
}

TEST(CheckNonPerturbation, DaceliteDiscreteBitIdenticalWithCheckerAttached) {
  // The discrete backend drives host streams, events and hostmpi — the
  // densest instrumentation paths — so it is the most likely place for an
  // observer hook to accidentally cost simulated time.
  auto run = [](sim::Observer* obs) {
    auto prog = dacelite::make_jacobi1d(1u << 12, 2, 8);
    dacelite::apply_gpu_transform(prog.sdfg);
    Machine m(MachineSpec::hgx_a100(2));
    m.engine().set_observer(obs);
    World w(m);
    hostmpi::Comm comm(m);
    dacelite::ExecOptions opt;
    dacelite::ProgramData data(w, prog.sdfg, true);
    return dacelite::execute_discrete(m, comm, data, prog.sdfg, opt);
  };
  const auto off = run(nullptr);
  Detector det;
  const auto on = run(&det);
  EXPECT_TRUE(det.clean()) << det.report_text();
  EXPECT_EQ(cpufree::to_json(off.metrics), cpufree::to_json(on.metrics));
  EXPECT_EQ(off.iterations, on.iterations);
}

}  // namespace
