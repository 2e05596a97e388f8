// Hard (fail-stop) faults, checkpoint/restore and job-level failover
// (DESIGN.md §15).
//
// Groups:
//   * schedule: device deaths are counter-based (pure in (device, iteration)
//     and config), declared exactly once, and gated by the fail-stop class
//     mask — a rate-only config can never kill hardware;
//   * checkpoint: the exec-layer snapshots are a pure function of
//     (workload, t) — bitwise identical across sweep worker counts and
//     reruns;
//   * failover: a device killed mid-run aborts its resident jobs, the server
//     re-admits them onto surviving devices from the newest complete
//     checkpoint, and every recovered job lands BITWISE on the unfailed
//     serial reference — with the checker clean, with the fleet report
//     byte-identical across reruns, and with the raced
//     placement path (death between window selection and launch) re-queuing
//     rather than wedging;
//   * verdicts: without checkpointing the aborted job is reported lost; a
//     non-restartable tenant stranded on the dead device surfaces through
//     the engine's attributed hang report, which names the dead device, the
//     evicted tenant and the stuck job;
//   * window faults: window-only fault masks (link/flap/stall) inject yet
//     still verify, byte-identically across reruns.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/detector.hpp"
#include "cpufree/metrics.hpp"
#include "exec/program.hpp"
#include "fault/schedule.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "sweep/executor.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace {

using serve::ArrivalConfig;
using serve::JobKind;
using serve::JobSpec;
using serve::ServeConfig;
using serve::ServeReport;
using vgpu::MachineSpec;

/// A fail-stop config that kills `device` the first time a resident kernel
/// reaches iteration `at`. No transient rate: hard faults are independent
/// of enabled().
fault::Config kill_device(int device, std::int64_t at) {
  fault::Config cfg;
  fault::HardFault h;
  h.device = device;
  h.at = at;
  cfg.hard.push_back(h);
  cfg.classes |= fault::kClassDeviceDead;
  return cfg;
}

// --- schedule ------------------------------------------------------------------

TEST(HardSchedule, DeviceDeathIsCounterBasedAndDeclaredOnce) {
  fault::Schedule s(kill_device(1, 3));
  EXPECT_FALSE(s.enabled());  // no transient rate...
  EXPECT_TRUE(s.hard_enabled());  // ...yet the fail-stop plane is armed
  // The trigger predicate is pure in (device, iteration).
  EXPECT_FALSE(s.device_dead_at(1, 2));
  EXPECT_TRUE(s.device_dead_at(1, 3));
  EXPECT_TRUE(s.device_dead_at(1, 7));
  EXPECT_FALSE(s.device_dead_at(0, 100));
  EXPECT_EQ(s.device_kill_iteration(1), 3);
  EXPECT_EQ(s.device_kill_iteration(0), -1);
  // Pure queries never transition state.
  EXPECT_FALSE(s.device_dead(1));
  // The stateful declaration fires exactly once, at the first consult
  // at/after the kill point.
  EXPECT_FALSE(s.note_device_iteration(1, 2, 10));
  EXPECT_FALSE(s.device_dead(1));
  EXPECT_TRUE(s.note_device_iteration(1, 3, 20));
  EXPECT_FALSE(s.note_device_iteration(1, 3, 25));
  EXPECT_FALSE(s.note_device_iteration(1, 4, 30));
  EXPECT_TRUE(s.device_dead(1));
  ASSERT_EQ(s.dead_devices().size(), 1u);
  EXPECT_EQ(s.dead_devices().at(1), 20);
  EXPECT_EQ(s.stats().devices_dead, 1);
  EXPECT_TRUE(s.delivery_blackholed(0, 1));
  EXPECT_TRUE(s.delivery_blackholed(1, 0));
  EXPECT_FALSE(s.delivery_blackholed(0, 2));
}

TEST(HardSchedule, ClassMaskGatesFailStopEntries) {
  // A hard entry without the kClassDeviceDead bit is inert: the default
  // transient mask (kClassAll) must never be able to kill hardware.
  fault::Config cfg = kill_device(0, 1);
  cfg.classes = fault::kClassAll;
  EXPECT_FALSE(cfg.hard_enabled());
  fault::Schedule s(cfg);
  EXPECT_FALSE(s.hard_enabled());
  EXPECT_FALSE(s.device_dead_at(0, 5));
  EXPECT_FALSE(s.note_device_iteration(0, 5, 1));
  EXPECT_EQ(s.device_kill_iteration(0), -1);
  EXPECT_EQ(s.stats().devices_dead, 0);
}

TEST(HardSchedule, SameConfigReplaysBitIdentically) {
  const fault::Config cfg = kill_device(2, 5);
  fault::Schedule a(cfg);
  fault::Schedule b(cfg);
  for (std::int64_t t = 1; t <= 8; ++t) {
    EXPECT_EQ(a.note_device_iteration(2, t, t * 100),
              b.note_device_iteration(2, t, t * 100))
        << "iteration " << t;
  }
  EXPECT_EQ(a.dead_devices(), b.dead_devices());
}

// --- checkpoint byte-stability -------------------------------------------------

/// Runs one checkpointing CPU-Free stencil on a 2-device slice and returns
/// the store's raw snapshots. Mirrors the serve workload's wiring (slice
/// world, functional run).
std::map<int, std::map<int, std::vector<double>>> ckpt_snapshots() {
  vgpu::Machine m(MachineSpec::hgx_a100(2));
  m.trace().set_enabled(false);
  vshmem::World w(m, {0, 1}, "ckpt");
  stencil::Jacobi2D p;
  p.nx = 48;
  p.ny = 48;
  stencil::StencilConfig cfg;
  cfg.iterations = 8;
  cfg.functional = true;
  cfg.trace = false;
  cfg.persistent_blocks = 4;
  stencil::SlabStencil<stencil::Jacobi2D> S(w, p, cfg);
  exec::Program prog =
      stencil::make_slab_program(S, stencil::Variant::kCpuFree);
  exec::CheckpointStore store(/*pes=*/2, /*interval=*/2);
  prog.checkpoints = &store;
  m.engine().spawn(exec::run_program_persistent_task(prog));
  m.engine().run();
  EXPECT_EQ(S.gather(cfg.iterations & 1), S.reference(cfg.iterations));
  EXPECT_EQ(store.last_complete(), 6);  // 2, 4, 6 (never the final iteration)
  return store.snapshots;
}

TEST(Checkpoint, SnapshotsBitStableAcrossReruns) {
  const auto golden = ckpt_snapshots();
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(ckpt_snapshots(), golden) << "rerun differs";
}

TEST(Checkpoint, SnapshotsBitStableAcrossSweepThreads) {
  // Each sweep job owns its Machine; worker count must not perturb the
  // captured bytes (the --threads half of the determinism contract).
  const auto golden = ckpt_snapshots();
  std::map<int, std::map<int, std::vector<double>>> out[2];
  sweep::Executor ex(sweep::Options{/*threads=*/2, /*progress=*/false});
  for (int i = 0; i < 2; ++i) {
    ex.add("ckpt" + std::to_string(i), {}, [i, &out] {
      out[i] = ckpt_snapshots();
      return sweep::RunResult{};
    });
  }
  (void)ex.run();
  EXPECT_EQ(out[0], golden);
  EXPECT_EQ(out[1], golden);
}

// --- failover ------------------------------------------------------------------

JobSpec stencil_job(int id, std::string tenant, int devices, std::size_t n,
                    int iterations) {
  JobSpec j;
  j.id = id;
  j.tenant = std::move(tenant);
  j.kind = JobKind::kStencil;
  j.devices = devices;
  j.nx = n;
  j.ny = n;
  j.iterations = iterations;
  j.slo_factor = 64.0;  // failures inflate makespans by design
  return j;
}

/// Three stencil tenants on an 8-device multi_node machine; the first spans
/// devices {0, 1} (first-fit), so the kill of device 1 at iteration 3 lands
/// inside at least one running slice.
std::vector<JobSpec> small_fleet() {
  std::vector<JobSpec> jobs;
  jobs.push_back(stencil_job(0, "t0", 2, 48, 8));
  jobs.push_back(stencil_job(1, "t1", 1, 48, 8));
  jobs.push_back(stencil_job(2, "t2", 2, 64, 8));
  return jobs;
}

ServeConfig failover_config(int checkpoint_every) {
  ServeConfig cfg;
  cfg.machine = MachineSpec::multi_node(2, 4);
  cfg.machine.faults = kill_device(1, 3);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  cfg.checkpoint_every = checkpoint_every;
  cfg.compute_isolated = false;
  return cfg;
}

TEST(Failover, RecoversFromCheckpointBitwise) {
  const ServeReport rep = serve::run_serve(failover_config(2), small_fleet());
  // Every job — including every one the kill aborted — must finish verified:
  // verify() compares the recovered state bitwise against the full serial
  // reference from the TRUE initial state, so this is the restore-then-
  // verify equality, not a weaker "completed" check.
  EXPECT_EQ(rep.fleet.completed, 3);
  EXPECT_EQ(rep.fleet.verified, 3);
  EXPECT_EQ(rep.fleet.jobs_lost, 0);
  EXPECT_GE(rep.fleet.failovers, 1);
  EXPECT_EQ(rep.hang_report, "");
  EXPECT_GT(rep.fleet.replayed_iterations, 0);
  EXPECT_GT(rep.fleet.goodput, 0.0);
  EXPECT_LE(rep.fleet.goodput, 1.0);

  int recovered = 0;
  int from_checkpoint = 0;
  for (const auto& r : rep.jobs) {
    EXPECT_TRUE(r.out.verified) << r.spec.id << ": " << r.out.detail;
    if (r.out.attempts < 2) continue;
    ++recovered;
    // The kill counter is keyed to the FIRST resident kernel reaching
    // iteration 3, so the declared progress destroyed on the device is
    // always 2 iterations — but a co-resident tenant that had not yet
    // committed its own t=2 capture legitimately restarts from scratch.
    // Either way the accounting must balance exactly: what was not
    // restored is lost, and the recovery replays the rest.
    EXPECT_GE(r.out.restarted_from, 0) << r.spec.id;
    EXPECT_LE(r.out.restarted_from, 2) << r.spec.id;
    EXPECT_EQ(r.out.restarted_from + r.out.lost_iterations, 2) << r.spec.id;
    EXPECT_EQ(r.out.replayed_iterations,
              r.spec.iterations - r.out.restarted_from)
        << r.spec.id;
    EXPECT_GE(r.out.resumed_at, r.out.aborted_at) << r.spec.id;
    // The recovery must have moved off the dead device.
    EXPECT_NE(r.out.first_device, 1) << r.spec.id;
    if (r.out.restarted_from == 2) {
      ++from_checkpoint;
      EXPECT_NE(r.out.detail.find("(resumed at 2)"), std::string::npos)
          << r.out.detail;
    }
  }
  EXPECT_GE(recovered, 1);
  // The declaring job's own t=2 capture always precedes its iteration-3
  // loop top, so at least one recovery restores from the checkpoint proper.
  EXPECT_GE(from_checkpoint, 1);
}

TEST(Failover, CheckerStaysCleanThroughAbortAndRestore) {
  check::Detector det;
  ServeConfig cfg = failover_config(2);
  cfg.observer = &det;
  const ServeReport rep = serve::run_serve(cfg, small_fleet());
  EXPECT_EQ(rep.fleet.verified, 3);
  EXPECT_GE(rep.fleet.failovers, 1);
  EXPECT_TRUE(det.clean()) << det.report_text();
}

TEST(Failover, NoCheckpointControlReportsJobLost) {
  const ServeReport rep = serve::run_serve(failover_config(0), small_fleet());
  EXPECT_GE(rep.fleet.jobs_lost, 1);
  EXPECT_EQ(rep.fleet.failovers, 0);  // nothing restartable, nothing re-admitted
  EXPECT_EQ(rep.fleet.completed + rep.fleet.jobs_lost, rep.fleet.jobs);
  EXPECT_EQ(rep.fleet.verified, rep.fleet.completed);
  EXPECT_GT(rep.fleet.lost_iterations, 0);
  EXPECT_LT(rep.fleet.goodput, 1.0);
  for (const auto& r : rep.jobs) {
    if (!r.out.lost) continue;
    EXPECT_FALSE(r.out.completed) << r.spec.id;
    EXPECT_EQ(r.out.detail.rfind("lost: ", 0), 0u) << r.out.detail;
    EXPECT_NE(r.out.detail.find("no checkpointing configured"),
              std::string::npos)
        << r.out.detail;
    EXPECT_EQ(r.out.attempts, 1) << r.spec.id;
  }
}

/// Every per-job number of a hard-fault run that must be bit-identical
/// across reruns and engine thread counts, one line per job.
std::string failover_fingerprint(const ServeReport& rep) {
  std::ostringstream os;
  for (const auto& r : rep.jobs) {
    os << r.spec.id << '|' << r.out.arrival << '|' << r.out.admit << '|'
       << r.out.end << '|' << r.out.admitted << r.out.completed
       << r.out.verified << r.out.lost << '|' << r.out.first_device << '|'
       << r.out.attempts << '|' << r.out.restarted_from << '|'
       << r.out.aborted_at << '|' << r.out.resumed_at << '|'
       << r.out.lost_iterations << '|' << r.out.replayed_iterations << '|'
       << r.out.detail << '\n';
  }
  const serve::FleetMetrics& f = rep.fleet;
  os << f.fleet_makespan_us << '|' << f.failovers << '|' << f.jobs_lost << '|'
     << f.requeues << '|' << f.lost_iterations << '|' << f.replayed_iterations
     << '|' << f.goodput << '|' << f.mean_recovery_latency_us << '\n';
  return os.str();
}

TEST(Failover, FleetByteIdenticalAcrossReruns) {
  const std::string golden = failover_fingerprint(
      serve::run_serve(failover_config(2), small_fleet()));
  EXPECT_NE(golden.find("(resumed at"), std::string::npos) << golden;
  EXPECT_EQ(failover_fingerprint(
                serve::run_serve(failover_config(2), small_fleet())),
            golden)
      << "rerun differs";
}

// --- raced placement (admission vs. death) -------------------------------------

/// The fig_failover fleet shape (3 tenants x 3 stencil jobs, open arrivals):
/// job shapes drawn from the same salted counter streams, so this replays
/// the figure's kill/ckpt2 cell, whose arrival pattern admits one job onto a
/// window containing device 1 in the same instant the death is declared.
constexpr std::uint64_t kShapeSalt = 0xfa110feedull;

std::vector<JobSpec> figure_fleet(std::uint64_t seed) {
  static constexpr int kDevices[] = {1, 2, 4};
  static constexpr std::size_t kStencilN[] = {48, 64, 96};
  std::vector<JobSpec> jobs;
  int id = 0;
  for (int j = 0; j < 3; ++j) {
    for (int t = 0; t < 3; ++t) {
      const std::uint64_t tu = static_cast<std::uint64_t>(t);
      const std::uint64_t ju = static_cast<std::uint64_t>(j);
      const int devices =
          kDevices[sim::stream_mix(seed, kShapeSalt, tu, ju) % 3];
      const std::uint64_t shape = sim::stream_mix(seed, kShapeSalt + 1, tu, ju);
      const int iters = ((shape >> 8) & 1) != 0 ? 12 : 8;
      // += rather than operator+: GCC 12 -Wrestrict false positive.
      std::string tenant = "t";
      tenant += std::to_string(t);
      jobs.push_back(stencil_job(id++, std::move(tenant), devices,
                                 kStencilN[shape % 3], iters));
    }
  }
  return jobs;
}

TEST(Failover, RacedPlacementIsRequeuedNotWedged) {
  // Same seed derivation as fig_failover's kill/ckpt2 cell (cell index 2).
  const std::uint64_t cell_seed =
      sim::stream_mix(1, kShapeSalt + 7, 2, 0);
  ServeConfig cfg = failover_config(2);
  cfg.arrival.mode = ArrivalConfig::Mode::kOpen;
  cfg.arrival.mean_interarrival_us = 20.0;
  cfg.arrival.seed = cell_seed;
  const ServeReport rep = serve::run_serve(cfg, figure_fleet(cell_seed));
  // The raced job was re-queued before anything was built...
  EXPECT_GE(rep.fleet.requeues, 1);
  // ...and neither wedged nor double-counted: every job still ends in
  // exactly one terminal state, and every completed job verifies.
  EXPECT_EQ(rep.fleet.completed + rep.fleet.jobs_lost + rep.fleet.rejected,
            rep.fleet.jobs);
  EXPECT_EQ(rep.fleet.rejected, 0);
  EXPECT_EQ(rep.fleet.jobs_lost, 0);
  EXPECT_EQ(rep.fleet.verified, rep.fleet.jobs);
  EXPECT_EQ(rep.hang_report, "");
}

// --- hang attribution ----------------------------------------------------------

TEST(Failover, HangReportNamesDeadDeviceAndEvictedTenant) {
  // A checkpointing stencil and a CG job co-resident on devices {0, 1}
  // (default blocks = half the cooperative cap). The kill aborts the
  // stencil, which recovers on surviving devices; CG has no skip-join
  // protocol, so its PEs strand on blackholed signals and the run ends in
  // an attributed hang report instead of a clean drain.
  std::vector<JobSpec> jobs;
  jobs.push_back(stencil_job(0, "t0", 2, 48, 8));
  JobSpec cg = stencil_job(1, "t1", 2, 48, 12);
  cg.kind = JobKind::kCg;
  jobs.push_back(cg);

  ServeConfig cfg = failover_config(2);
  cfg.machine = MachineSpec::hgx_a100(4);
  cfg.machine.faults = kill_device(1, 3);
  const ServeReport rep = serve::run_serve(cfg, jobs);

  // The stencil still recovered and verified before the drain stalled.
  EXPECT_TRUE(rep.jobs[0].out.verified) << rep.jobs[0].out.detail;
  EXPECT_GE(rep.jobs[0].out.attempts, 2);
  // The CG tenant never completed...
  EXPECT_FALSE(rep.jobs[1].out.completed);
  // ...and the hang report attributes the loss: the incident log names the
  // dead device and the evicted stencil tenant, and the stuck waits carry
  // the CG job's label.
  ASSERT_FALSE(rep.hang_report.empty());
  EXPECT_NE(rep.hang_report.find("device 1 declared dead"), std::string::npos)
      << rep.hang_report;
  EXPECT_NE(rep.hang_report.find("evicted"), std::string::npos)
      << rep.hang_report;
  EXPECT_NE(rep.hang_report.find("j0:t0:stencil"), std::string::npos)
      << rep.hang_report;
  EXPECT_NE(rep.hang_report.find("j1:t1:cg"), std::string::npos)
      << rep.hang_report;
}

// --- window-only fault masks ----------------------------------------------------

std::string window_faults_json() {
  MachineSpec spec = MachineSpec::hgx_a100(4);
  spec.faults.seed = 9;
  spec.faults.rate = 0.2;
  spec.faults.classes =
      fault::kClassLink | fault::kClassFlap | fault::kClassStall;
  stencil::Jacobi2D p;
  p.nx = 128;
  p.ny = 128;
  stencil::StencilConfig cfg;
  cfg.iterations = 12;
  cfg.persistent_blocks = 4;
  const stencil::RunOutput out =
      stencil::run_jacobi2d(stencil::Variant::kCpuFree, spec, p, cfg);
  EXPECT_TRUE(out.verified);
  EXPECT_GT(out.result.metrics.faults_injected, 0);
  return cpufree::to_json(out.result.metrics);
}

TEST(WindowFaults, WindowOnlyMasksVerifyByteIdenticallyAcrossReruns) {
  // Link/flap/stall windows are pure functions of simulated time: they
  // stretch transfers but never lose an update, so the run verifies on
  // plain waits and reruns byte-identically.
  const std::string golden = window_faults_json();
  EXPECT_EQ(window_faults_json(), golden) << "rerun differs";
}

}  // namespace
