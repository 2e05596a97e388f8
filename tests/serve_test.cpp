// Multi-tenant job server (src/serve/): admission determinism, occupancy
// arbitration, cross-tenant contention and fault isolation on one shared
// machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/placement.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/rng.hpp"
#include "solvers/sparse_cg.hpp"
#include "vgpu/costmodel.hpp"

namespace {

using serve::ArrivalConfig;
using serve::JobKind;
using serve::JobSpec;
using serve::ServeConfig;
using serve::ServeReport;

JobSpec job(int id, std::string tenant, JobKind kind, int devices,
            std::size_t n, int iterations) {
  JobSpec j;
  j.id = id;
  j.tenant = std::move(tenant);
  j.kind = kind;
  j.devices = devices;
  j.nx = n;
  j.ny = n;
  j.iterations = iterations;
  return j;
}

/// A small mixed fleet: all five workload families, 1- and 2-device slices,
/// including the irregular ones (skewed histogram, imbalanced sparse CG).
std::vector<JobSpec> mixed_fleet() {
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "t0", JobKind::kStencil, 2, 64, 8));
  jobs.push_back(job(1, "t1", JobKind::kCg, 2, 48, 12));
  jobs.push_back(job(2, "t2", JobKind::kDacelite, 1, 24, 6));
  jobs.push_back(job(3, "t0", JobKind::kStencil, 1, 48, 6));
  jobs.push_back(job(4, "t1", JobKind::kDacelite, 2, 24, 6));
  jobs.push_back(job(5, "t2", JobKind::kCg, 1, 32, 8));
  jobs.push_back(job(6, "t0", JobKind::kStencil, 4, 64, 8));
  jobs.push_back(job(7, "t1", JobKind::kCg, 2, 40, 10));
  jobs.push_back(job(8, "t2", JobKind::kStencil, 2, 56, 6));
  JobSpec hist = job(9, "t1", JobKind::kHistogram, 2, 97, 4);
  hist.ny = 256;  // keys per PE per round
  hist.skew = 2;
  hist.threads_per_block = 128;
  jobs.push_back(hist);
  JobSpec sparse = job(10, "t2", JobKind::kSparseCg, 2, 24, 20);
  sparse.imbalance = 3.0;
  jobs.push_back(sparse);
  return jobs;
}

ServeConfig open_loop_config(vgpu::MachineSpec machine) {
  ServeConfig cfg;
  cfg.machine = machine;
  cfg.arrival.mode = ArrivalConfig::Mode::kOpen;
  cfg.arrival.mean_interarrival_us = 30.0;
  cfg.arrival.seed = 7;
  return cfg;
}

/// Every per-job number that must be bit-identical across reruns and
/// engine thread counts, one line per job.
std::string fingerprint(const ServeReport& rep) {
  std::ostringstream os;
  for (const auto& r : rep.jobs) {
    os << r.spec.id << '|' << r.out.arrival << '|' << r.out.admit << '|'
       << r.out.end << '|' << r.out.admitted << r.out.completed
       << r.out.verified << '|' << r.out.first_device << '|'
       << r.out.blocks_per_device << '|' << r.isolated_us << '|'
       << r.slowdown << '|' << r.out.detail << '\n';
  }
  os << rep.fleet.fleet_makespan_us << '|' << rep.fleet.mean_queue_wait_us
     << '|' << rep.fleet.jain_fairness << '\n';
  return os.str();
}

TEST(Serve, MixedFleetCompletesAndVerifies) {
  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const ServeReport rep = serve::run_serve(cfg, mixed_fleet());
  EXPECT_EQ(rep.fleet.jobs, 11);
  EXPECT_EQ(rep.fleet.rejected, 0);
  EXPECT_EQ(rep.fleet.completed, 11);
  EXPECT_EQ(rep.fleet.verified, 11);
  for (const auto& r : rep.jobs) {
    EXPECT_TRUE(r.out.verified) << r.spec.id << ": " << r.out.detail;
    EXPECT_GT(r.isolated_us, 0.0);
    // Contention can only slow a job down; admission may also delay it.
    EXPECT_GE(r.slowdown, 0.999) << r.spec.id;
    EXPECT_GE(r.out.admit, r.out.arrival);
    EXPECT_GT(r.out.end, r.out.admit);
  }
  EXPECT_GT(rep.fleet.jain_fairness, 0.0);
  EXPECT_LE(rep.fleet.jain_fairness, 1.0 + 1e-12);
}

TEST(Serve, BitIdenticalAcrossReruns) {
  const ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const std::string golden = fingerprint(serve::run_serve(cfg, mixed_fleet()));
  EXPECT_EQ(fingerprint(serve::run_serve(cfg, mixed_fleet())), golden)
      << "rerun differs";
}

TEST(Serve, FifoAdmissionHasNoBypass) {
  // Full-capacity jobs (216 blocks of 1024 on an A100 fill the cooperative
  // cap), all submitted at t=0: A takes 2 devices, B wants all 4 and must
  // wait for A, and C — though 1 device is free the whole time — must wait
  // behind B (FIFO, head-of-line blocking is the determinism contract).
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 6));
  jobs.push_back(job(1, "b", JobKind::kStencil, 4, 64, 6));
  jobs.push_back(job(2, "c", JobKind::kStencil, 1, 48, 6));
  for (auto& j : jobs) j.persistent_blocks = 216;

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(4);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;  // no cap: admission is capacity-driven
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 3);
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_GE(rep.jobs[1].out.admit, rep.jobs[0].out.end);
  EXPECT_GE(rep.jobs[2].out.admit, rep.jobs[1].out.end);
  EXPECT_GT(rep.jobs[2].out.queue_wait(), 0);
}

TEST(Serve, OccupancyCapArbitratesCoResidency) {
  // Default blocks = one per SM = half the 1024-thread cooperative cap, so
  // exactly two persistent jobs co-reside on one device; the third queues
  // until a slot frees.
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 1, 48, 8));
  jobs.push_back(job(1, "b", JobKind::kStencil, 1, 48, 8));
  jobs.push_back(job(2, "c", JobKind::kStencil, 1, 48, 8));

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(1);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 3);
  ASSERT_EQ(rep.fleet.verified, 3);
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_EQ(rep.jobs[1].out.admit, 0);  // co-resident with job 0
  const sim::Nanos first_end =
      std::min(rep.jobs[0].out.end, rep.jobs[1].out.end);
  EXPECT_GE(rep.jobs[2].out.admit, first_end);
  EXPECT_GT(rep.jobs[2].out.queue_wait(), 0);
}

TEST(Serve, CrossbarTenantsDoNotInterfere) {
  // Full-capacity jobs force disjoint 2-device slices; on the NVSwitch
  // crossbar every lane is dedicated, so each tenant runs at its isolated
  // speed (slowdown ~= 1).
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 10));
  jobs.push_back(job(1, "b", JobKind::kStencil, 2, 64, 10));
  for (auto& j : jobs) j.persistent_blocks = 216;

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(4);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.verified, 2);
  EXPECT_EQ(rep.jobs[0].out.first_device, 0);
  EXPECT_EQ(rep.jobs[1].out.first_device, 2);
  for (const auto& r : rep.jobs) {
    EXPECT_GE(r.slowdown, 0.999) << r.spec.id;
    EXPECT_LE(r.slowdown, 1.01) << r.spec.id;
  }
}

TEST(Serve, SharedLinksContend) {
  // Two half-capacity 4-device jobs co-resident on a 2x2 multi-node
  // machine: both tenants' node-crossing halos share the per-node NIC
  // links, so each runs measurably slower than alone.
  // Wide, shallow domains make the node-crossing halo (plane = nx doubles)
  // the dominant per-iteration cost, so NIC sharing is clearly visible.
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 4, 16, 30));
  jobs.push_back(job(1, "b", JobKind::kStencil, 4, 16, 30));
  for (auto& j : jobs) j.nx = 4096;

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::multi_node(2, 2);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.verified, 2);
  // Both jobs span the same 4 devices (co-resident under the occupancy cap).
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_EQ(rep.jobs[1].out.admit, 0);
  EXPECT_GT(rep.fleet.mean_slowdown, 1.02);
}

TEST(Serve, InFlightFinalPutsSurviveJobTeardown) {
  // Regression: the slab halo protocol signals iteration t+1 after its last
  // step, so a job's final put_signal is still in flight — unconsumed —
  // when its task completes mid-run. The workload (world, flags) must stay
  // alive until its World drains, or the delivery callback touches freed
  // memory (caught under ASan). Wide shallow slabs maximise the
  // in-flight window; the follow-up jobs reuse the same devices right after
  // the wide job's slot frees.
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 4, 16, 12));
  jobs[0].nx = 4096;
  jobs.push_back(job(1, "b", JobKind::kStencil, 1, 48, 6));
  jobs.push_back(job(2, "b", JobKind::kCg, 2, 32, 8));
  jobs.push_back(job(3, "a", JobKind::kDacelite, 1, 24, 6));

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::multi_node(2, 2);
  cfg.arrival.mode = ArrivalConfig::Mode::kOpen;
  cfg.arrival.mean_interarrival_us = 10.0;
  cfg.arrival.seed = 21;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 4);
  EXPECT_EQ(rep.fleet.verified, 4);
}

TEST(Serve, DeviceMemoryIsBoundedByRunningJobs) {
  // Invariant: a finished job's device memory is freed once its World
  // drains, so a closed loop running one job at a time never holds more
  // than one job's symmetric heap, however many jobs it serves.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back(job(i, "t0", JobKind::kStencil, 4, 64, 8));
  }
  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(4);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 1;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.verified, 16);
  // One job: two parities of (16 rows + 2 halo rows) x 64 doubles per PE.
  const std::size_t footprint = 4 * 2 * (16 + 2) * 64 * sizeof(double);
  EXPECT_EQ(rep.peak_device_bytes, footprint);
  EXPECT_EQ(rep.live_device_bytes, 0u);
}

TEST(Serve, StreamsAndJobLabelsAreBoundedByRunningJobs) {
  // Invariant: a retired job releases its streams and unbinds its job-map
  // lanes, so a machine that served 16 jobs of all five kinds holds neither
  // once they are done, however many it served.
  const JobKind kinds[] = {JobKind::kStencil, JobKind::kCg,
                           JobKind::kDacelite, JobKind::kHistogram,
                           JobKind::kSparseCg};
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 16; ++i) {
    JobSpec j = job(i, "t0", kinds[i % 5], 2, 48, 6);
    if (j.kind == JobKind::kHistogram) j.threads_per_block = 128;
    jobs.push_back(j);
  }
  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(4);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 1;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.verified, 16);
  EXPECT_EQ(rep.live_streams, 0u);
  EXPECT_EQ(rep.live_job_lanes, 0u);
}

/// `j` alone on `machine`, placed on `devices` with the blocks first-fit
/// admission would charge.
sim::Nanos alone(const vgpu::MachineSpec& machine, const JobSpec& j,
                 std::vector<int> devices, bool functional) {
  serve::Placement place;
  place.devices = std::move(devices);
  place.blocks_per_device =
      serve::AdmissionController(machine, serve::PlacePolicy::kFirstFit)
          .resolve_blocks(j);
  return serve::isolated_runtime(machine, j, place, functional);
}

/// A generated job of `kind` on `devices` devices, from the draw `r`. CG
/// shapes may or may not converge within their iterations.
JobSpec generated_job(JobKind kind, int devices, std::uint64_t r) {
  JobSpec j;
  j.tenant = "t0";
  j.kind = kind;
  j.devices = devices;
  j.iterations = 2 + static_cast<int>((r >> 24) % 6);
  switch (kind) {
    case JobKind::kStencil:
      j.nx = ((r >> 32) & 1) != 0 ? 4096 : 40;
      j.ny = 8 + 4 * ((r >> 40) % 8);
      break;
    case JobKind::kDacelite:
      j.nx = j.ny = ((r >> 32) & 1) != 0 ? 48 : 24;
      break;
    case JobKind::kHistogram:
      j.nx = 61 + 36 * ((r >> 32) % 4);
      j.ny = 64 + 64 * ((r >> 40) % 3);
      j.skew = static_cast<int>((r >> 48) % 4);
      j.threads_per_block = 128;
      break;
    case JobKind::kCg:
      j.nx = j.ny = 8 + 8 * ((r >> 32) % 4);
      j.iterations = 4 + static_cast<int>((r >> 40) % 24);
      break;
    case JobKind::kSparseCg:
      j.nx = j.ny = 8 + 8 * ((r >> 32) % 3);
      j.imbalance = 1.0 + static_cast<double>((r >> 40) % 4);
      j.iterations = 4 + static_cast<int>((r >> 48) % 24);
      break;
  }
  return j;
}

TEST(Serve, TimingOnlyIsolatedBaselinesMatchFunctional) {
  // run_serve computes every baseline that timing_is_data_independent
  // admits without its numerics. That is exact only if the simulated time
  // reads no data: generated shapes and placements of all five kinds on all
  // three machine models, two-device dacelite and CG shapes that run every
  // iteration included, must time bit-identically both ways.
  const vgpu::MachineSpec machines[] = {vgpu::MachineSpec::hgx_a100(4),
                                        vgpu::MachineSpec::dgx_pcie(4),
                                        vgpu::MachineSpec::multi_node(2, 2)};
  const std::vector<int> slices[] = {{0},    {3},          {0, 1},
                                     {1, 2}, {3, 0},       {0, 1, 2, 3},
                                     {2, 3}, {2, 3, 0, 1}};
  const JobKind kinds[] = {JobKind::kStencil, JobKind::kDacelite,
                           JobKind::kHistogram, JobKind::kCg,
                           JobKind::kSparseCg};
  constexpr std::uint64_t kSalt = 0x150;
  int two_device_dacelite = 0;
  int cg_timing_only = 0;
  for (std::uint64_t i = 0; i < 80; ++i) {
    const std::uint64_t r = sim::stream_mix(1, kSalt, i, 0);
    const vgpu::MachineSpec& machine = machines[(r >> 8) % 3];
    const std::vector<int>& devices = slices[(r >> 16) % std::size(slices)];
    JobSpec j = generated_job(kinds[i % std::size(kinds)],
                              static_cast<int>(devices.size()), r);
    j.id = static_cast<int>(i);
    ASSERT_EQ(serve::validate(j), "") << i;
    if (!serve::timing_is_data_independent(j)) {
      // Only CG may converge early; every other kind always qualifies.
      ASSERT_TRUE(j.kind == JobKind::kCg || j.kind == JobKind::kSparseCg);
      continue;
    }
    if (j.kind == JobKind::kDacelite && j.devices == 2) ++two_device_dacelite;
    if (j.kind == JobKind::kCg || j.kind == JobKind::kSparseCg) {
      ++cg_timing_only;
    }
    EXPECT_EQ(alone(machine, j, devices, /*functional=*/false),
              alone(machine, j, devices, /*functional=*/true))
        << "job " << i << ": " << serve::name(j.kind) << ' ' << j.nx << 'x'
        << j.ny << " x" << j.iterations << " on " << j.devices << " device(s)";
  }
  EXPECT_GT(two_device_dacelite, 0);
  EXPECT_GT(cg_timing_only, 4);

  // Every CG and sparse-CG shape the benchmark fleet serves runs every
  // iteration, so all of its baselines are timing-only.
  const vgpu::MachineSpec pcie = vgpu::MachineSpec::dgx_pcie(8);
  const std::vector<int> fleet_slices[] = {{5}, {2, 3}, {2, 3, 4, 5}};
  for (const std::vector<int>& devices : fleet_slices) {
    for (int iterations : {8, 12}) {
      for (std::size_t n : {32u, 48u, 64u}) {
        JobSpec j = job(0, "t0", JobKind::kCg,
                        static_cast<int>(devices.size()), n, iterations);
        ASSERT_TRUE(serve::timing_is_data_independent(j)) << n;
        EXPECT_EQ(alone(pcie, j, devices, false), alone(pcie, j, devices, true))
            << "cg " << n << " x" << iterations << " on " << devices.size();
      }
    }
    for (int iterations : {12, 20}) {
      for (std::size_t n : {16u, 24u, 32u}) {
        for (double imbalance : {1.0, 4.0}) {
          JobSpec j = job(0, "t0", JobKind::kSparseCg,
                          static_cast<int>(devices.size()), n, iterations);
          j.imbalance = imbalance;
          ASSERT_TRUE(serve::timing_is_data_independent(j)) << n;
          EXPECT_EQ(alone(pcie, j, devices, false),
                    alone(pcie, j, devices, true))
              << "sparse_cg " << n << " x" << iterations << " w" << imbalance
              << " on " << devices.size();
        }
      }
    }
  }
}

TEST(Serve, IsolatedBaselineDependsOnlyOnSliceClass) {
  // The baseline cache keys a job's devices by their slice class. That is
  // exact only if two placements of one class give the same time alone:
  // generated shapes of all five kinds, each timed on pairs of placements
  // with equal classes, must match bit for bit.
  const vgpu::MachineSpec machines[] = {vgpu::MachineSpec::hgx_a100(8),
                                        vgpu::MachineSpec::dgx_pcie(8),
                                        vgpu::MachineSpec::multi_node(2, 4)};
  const std::vector<int> slices[] = {
      {0},          {3},          {6},          {0, 1},       {1, 2},
      {2, 3},       {3, 4},       {4, 5},       {6, 7},       {0, 2},
      {1, 0},       {5, 4},       {0, 1, 2, 3}, {1, 2, 3, 4}, {4, 5, 6, 7},
      {2, 3, 4, 5}, {3, 4, 5, 6}, {0, 2, 4, 6}};
  const JobKind kinds[] = {JobKind::kStencil, JobKind::kDacelite,
                           JobKind::kHistogram, JobKind::kCg,
                           JobKind::kSparseCg};
  constexpr std::uint64_t kSalt = 0x151;
  int compared = 0;
  int merged_classes = 0;
  for (std::size_t mi = 0; mi < std::size(machines); ++mi) {
    const vgpu::MachineSpec& spec = machines[mi];
    const vgpu::Machine m(spec);
    // Placements of one size and one class, class by class.
    std::vector<std::vector<std::vector<int>>> classes;
    std::vector<std::vector<std::uint64_t>> keys;
    for (const std::vector<int>& s : slices) {
      const std::vector<std::uint64_t> key = m.slice_class(s);
      const auto it = std::find(keys.begin(), keys.end(), key);
      if (it == keys.end()) {
        keys.push_back(key);
        classes.push_back({s});
      } else {
        classes[static_cast<std::size_t>(it - keys.begin())].push_back(s);
      }
    }
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const auto& members = classes[c];
      if (members.size() < 2) continue;
      ++merged_classes;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const std::uint64_t r = sim::stream_mix(1, kSalt, mi * 64 + c, k);
        const std::vector<int>& a = members[(r >> 4) % members.size()];
        const std::vector<int>& b =
            members[((r >> 4) + 1 + (r >> 12) % (members.size() - 1)) %
                    members.size()];
        JobSpec j = generated_job(kinds[(r >> 20) % std::size(kinds)],
                                  static_cast<int>(a.size()), r);
        ASSERT_EQ(serve::validate(j), "");
        const bool timing_only = serve::timing_is_data_independent(j);
        EXPECT_EQ(alone(spec, j, a, !timing_only),
                  alone(spec, j, b, !timing_only))
            << serve::name(j.kind) << ' ' << j.nx << 'x' << j.ny << " x"
            << j.iterations << " on machine " << mi << ", slices starting "
            << a.front() << " and " << b.front();
        ++compared;
      }
    }
  }
  EXPECT_GE(merged_classes, 9);
  EXPECT_GT(compared, 0);

  // The class sees the interconnect: a pair under one PCIe switch is not a
  // pair across the root, nor is a pair in one node a pair across the NIC.
  const vgpu::Machine pcie(vgpu::MachineSpec::dgx_pcie(8));
  EXPECT_NE(pcie.slice_class(std::vector<int>{0, 1}),
            pcie.slice_class(std::vector<int>{3, 4}));
  EXPECT_EQ(pcie.slice_class(std::vector<int>{0, 1}),
            pcie.slice_class(std::vector<int>{6, 7}));
  const vgpu::Machine nodes(vgpu::MachineSpec::multi_node(2, 4));
  EXPECT_NE(nodes.slice_class(std::vector<int>{0, 1}),
            nodes.slice_class(std::vector<int>{3, 4}));
  EXPECT_EQ(nodes.slice_class(std::vector<int>{0, 1}),
            nodes.slice_class(std::vector<int>{5, 6}));
  // ...and each device's spec.
  vgpu::MachineSpec mixed = vgpu::MachineSpec::hgx_a100(4);
  mixed.device_overrides.resize(4, mixed.device);
  mixed.device_overrides[2].sm_count = 54;
  const vgpu::Machine hetero(mixed);
  EXPECT_EQ(hetero.slice_class(std::vector<int>{0, 1}),
            hetero.slice_class(std::vector<int>{0, 3}));
  EXPECT_NE(hetero.slice_class(std::vector<int>{0, 1}),
            hetero.slice_class(std::vector<int>{2, 3}));
}

TEST(Serve, FirstFitPlacementsOfOneSliceClassShareOneBaseline) {
  // Four full-capacity two-device jobs fill an 8-device machine side by
  // side; every slice is of one class, so the four cost one isolated run.
  for (const vgpu::MachineSpec& machine :
       {vgpu::MachineSpec::hgx_a100(8), vgpu::MachineSpec::dgx_pcie(8)}) {
    std::vector<JobSpec> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(job(i, "t0", JobKind::kStencil, 2, 64, 6));
      jobs.back().persistent_blocks = 216;
    }
    ServeConfig cfg;
    cfg.machine = machine;
    cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
    cfg.arrival.concurrency = 0;
    const ServeReport rep = serve::run_serve(cfg, jobs);
    ASSERT_EQ(rep.fleet.verified, 4);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(rep.jobs[static_cast<std::size_t>(i)].out.first_device, 2 * i);
      EXPECT_EQ(rep.jobs[static_cast<std::size_t>(i)].isolated_us,
                rep.jobs[0].isolated_us);
    }
    EXPECT_EQ(rep.isolated_runs, 1);
  }
}

TEST(Serve, JobsServedAloneRunAtTheirIsolatedSpeed) {
  // Two sparse-CG jobs whose imbalances agree to six decimals but split
  // their rows differently ([15, 9] and [16, 8]). Served one at a time,
  // each runs exactly as fast as alone, so each must report slowdown 1:
  // a baseline key that rounded the imbalance would hand the second job
  // the first one's baseline.
  JobSpec a = job(0, "t0", JobKind::kSparseCg, 2, 2048, 10);
  a.ny = 24;
  a.imbalance = 1.8235294;
  JobSpec b = a;
  b.id = 1;
  b.imbalance = 1.8235294118;
  ASSERT_EQ(solvers::split_rows_weighted(a.ny, 2, a.imbalance),
            (std::vector<std::size_t>{15, 9}));
  ASSERT_EQ(solvers::split_rows_weighted(b.ny, 2, b.imbalance),
            (std::vector<std::size_t>{16, 8}));
  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(2);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 1;
  const ServeReport rep = serve::run_serve(cfg, {a, b});
  ASSERT_EQ(rep.fleet.verified, 2);
  EXPECT_NE(rep.jobs[0].isolated_us, rep.jobs[1].isolated_us);
  for (const auto& r : rep.jobs) EXPECT_EQ(r.slowdown, 1.0) << r.spec.id;
  EXPECT_EQ(rep.isolated_runs, 2);
}

TEST(Serve, ConvergingAndCheckpointingJobsStayFunctional) {
  JobSpec stencil = job(0, "t0", JobKind::kStencil, 2, 48, 6);
  EXPECT_TRUE(serve::timing_is_data_independent(stencil));
  stencil.checkpoint_every = 2;  // snapshots copy the domain
  EXPECT_FALSE(serve::timing_is_data_independent(stencil));
  // CG on 8x8 converges at iteration 21: with 64 iterations it stops early,
  // and with exactly 21 its last iteration skips the p update and halo puts
  // a timing-only run would still charge. Neither may run timing-only.
  vgpu::Machine m(vgpu::MachineSpec::hgx_a100(2));
  serve::Placement place;
  place.devices = {0, 1};
  place.blocks_per_device = 1;
  for (int iterations : {64, 21}) {
    const JobSpec cg = job(1, "t0", JobKind::kCg, 2, 8, iterations);
    solvers::CgConfig c;
    c.nx = c.ny = 8;
    c.max_iterations = iterations;
    const solvers::CgResult ref = solvers::cg_reference(c, 2);
    EXPECT_EQ(ref.iterations_run, 21);
    EXPECT_LT(ref.final_rr, c.tolerance);
    EXPECT_FALSE(serve::timing_is_data_independent(cg)) << iterations;
    EXPECT_THROW((void)serve::make_workload(m, cg, place, "cg", nullptr,
                                            /*functional=*/false),
                 std::invalid_argument)
        << iterations;
  }
}

TEST(Serve, FaultyTenantDoesNotPerturbNeighbors) {
  // Tenant A injects put/signal faults (recovered by retry+degrade) on its
  // own 2-device slice; tenant B's disjoint slice must verify AND keep the
  // exact timeline it has when A is clean.
  auto make = [](bool a_faulty) {
    std::vector<JobSpec> jobs;
    jobs.push_back(job(0, "a", JobKind::kStencil, 2, 64, 10));
    jobs.push_back(job(1, "b", JobKind::kCg, 2, 48, 12));
    jobs[0].faulty = a_faulty;
    jobs[0].persistent_blocks = 216;
    jobs[1].persistent_blocks = 216;
    ServeConfig cfg;
    cfg.machine = vgpu::MachineSpec::hgx_a100(4);
    cfg.machine.faults.seed = 17;
    cfg.machine.faults.rate = 0.05;
    cfg.machine.faults.resilience = fault::Resilience::kRetryDegrade;
    cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
    cfg.arrival.concurrency = 0;
    return serve::run_serve(cfg, jobs);
  };

  const ServeReport faulty = make(true);
  const ServeReport clean = make(false);
  ASSERT_EQ(faulty.fleet.completed, 2);
  EXPECT_EQ(faulty.fleet.verified, 2);
  ASSERT_EQ(clean.fleet.completed, 2);
  EXPECT_EQ(clean.fleet.verified, 2);
  // The injections slow tenant A down...
  EXPECT_GE(faulty.jobs[0].out.makespan(), clean.jobs[0].out.makespan());
  // ...but tenant B's timeline is byte-identical either way.
  EXPECT_EQ(faulty.jobs[1].out.admit, clean.jobs[1].out.admit);
  EXPECT_EQ(faulty.jobs[1].out.end, clean.jobs[1].out.end);
}

TEST(Serve, IrregularJobsVerifyBitwiseUnderContention) {
  // A skewed histogram and an imbalanced sparse CG co-resident on the SAME
  // 2-device slice (default blocks = half the cooperative cap): contended
  // links and interleaved engine events must not perturb either job's
  // numerics — both verify bitwise against their serial references.
  std::vector<JobSpec> jobs;
  JobSpec hist = job(0, "a", JobKind::kHistogram, 2, 61, 5);
  hist.ny = 192;
  hist.skew = 3;
  hist.threads_per_block = 128;
  jobs.push_back(hist);
  JobSpec sparse = job(1, "b", JobKind::kSparseCg, 2, 20, 24);
  sparse.imbalance = 4.0;
  jobs.push_back(sparse);

  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(2);
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_EQ(rep.fleet.completed, 2);
  EXPECT_EQ(rep.fleet.verified, 2);
  // Co-resident from t=0 on the same slice.
  EXPECT_EQ(rep.jobs[0].out.admit, 0);
  EXPECT_EQ(rep.jobs[1].out.admit, 0);
  EXPECT_EQ(rep.jobs[0].out.first_device, rep.jobs[1].out.first_device);
  EXPECT_EQ(rep.jobs[0].out.detail.rfind("histogram", 0), 0u)
      << rep.jobs[0].out.detail;
  EXPECT_EQ(rep.jobs[1].out.detail.rfind("sparse_cg", 0), 0u)
      << rep.jobs[1].out.detail;
}

TEST(Serve, IrregularSpecsAreValidated) {
  std::vector<JobSpec> jobs;
  JobSpec hist = job(0, "a", JobKind::kHistogram, 4, 3, 4);  // 3 bins < 4 PEs
  jobs.push_back(hist);
  JobSpec sparse = job(1, "b", JobKind::kSparseCg, 4, 24, 10);
  sparse.ny = 6;  // fewer than two rows per device
  jobs.push_back(sparse);
  jobs.push_back(job(2, "c", JobKind::kSparseCg, 2, 16, 10));

  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const ServeReport rep = serve::run_serve(cfg, jobs);
  EXPECT_EQ(rep.fleet.rejected, 2);
  EXPECT_EQ(rep.fleet.completed, 1);
  EXPECT_EQ(rep.fleet.verified, 1);
  EXPECT_NE(rep.jobs[0].out.detail.find("bin per device"), std::string::npos)
      << rep.jobs[0].out.detail;
  EXPECT_NE(rep.jobs[1].out.detail.find("two rows per device"),
            std::string::npos)
      << rep.jobs[1].out.detail;
}

TEST(Serve, SparseJobsOverflowing32BitCsrAreRejectedWithAReason) {
  // 6 halo-extended rows of 2^31 columns overflow 32-bit CSR indices: the
  // job is rejected at submission, before anything is allocated for it.
  std::vector<JobSpec> jobs;
  JobSpec wide = job(0, "a", JobKind::kSparseCg, 1, 16, 4);
  wide.nx = std::size_t{1} << 31;
  wide.ny = 4;
  jobs.push_back(wide);
  jobs.push_back(job(1, "b", JobKind::kSparseCg, 2, 16, 4));
  EXPECT_NE(serve::validate(wide).find("32-bit"), std::string::npos)
      << serve::validate(wide);

  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(2));
  const ServeReport rep = serve::run_serve(cfg, jobs);
  EXPECT_EQ(rep.fleet.rejected, 1);
  EXPECT_EQ(rep.fleet.verified, 1);
  EXPECT_EQ(rep.jobs[0].out.detail.rfind("rejected:", 0), 0u)
      << rep.jobs[0].out.detail;
  EXPECT_NE(rep.jobs[0].out.detail.find("nx 2147483648"), std::string::npos)
      << rep.jobs[0].out.detail;
}

TEST(Serve, SparseJobWithAnExtremeShareGetsTheCsrReason) {
  // ny = SIZE_MAX at imbalance 1e17 rounds the first rank's share past the
  // range of size_t; validate still reaches the 32-bit CSR verdict.
  JobSpec extreme = job(0, "a", JobKind::kSparseCg, 2, 16, 4);
  extreme.ny = std::numeric_limits<std::size_t>::max();
  extreme.imbalance = 1e17;
  const std::string why = serve::validate(extreme);
  EXPECT_NE(why.find("overflows 32-bit CSR indices"), std::string::npos)
      << why;
}

TEST(Serve, SparseJobsWithAnUnusableImbalanceAreRejectedWithAReason) {
  // An imbalance that is not finite, or too large for the row split's
  // arithmetic, is rejected at submission with the solver's own message;
  // the neighbour still runs and verifies.
  const std::pair<double, std::string> bad[] = {
      {std::numeric_limits<double>::infinity(), "inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {1e308, "1e+308"},
  };
  for (const auto& [value, text] : bad) {
    JobSpec skewed = job(0, "a", JobKind::kSparseCg, 2, 16, 4);
    skewed.imbalance = value;
    const std::string why = serve::validate(skewed);
    solvers::SparseCgConfig cfg;
    cfg.nx = skewed.nx;
    cfg.ny = skewed.ny;
    cfg.imbalance = value;
    try {
      (void)solvers::csr_overflow(cfg, skewed.devices);
      ADD_FAILURE() << text << ": csr_overflow accepted the imbalance";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(why, e.what()) << text;
    }
    EXPECT_NE(why.find("imbalance " + text + " "), std::string::npos) << why;

    std::vector<JobSpec> jobs{skewed,
                              job(1, "b", JobKind::kSparseCg, 2, 16, 4)};
    ServeConfig cfg_serve = open_loop_config(vgpu::MachineSpec::hgx_a100(2));
    const ServeReport rep = serve::run_serve(cfg_serve, jobs);
    EXPECT_EQ(rep.fleet.rejected, 1) << text;
    EXPECT_EQ(rep.fleet.verified, 1) << text;
    EXPECT_EQ(rep.jobs[0].out.detail, "rejected: " + why);
  }
}

TEST(Serve, InfeasibleJobsAreRejectedNotWedged) {
  std::vector<JobSpec> jobs;
  jobs.push_back(job(0, "a", JobKind::kStencil, 8, 64, 6));  // > 4 devices
  jobs.push_back(job(1, "b", JobKind::kStencil, 2, 64, 6));
  JobSpec thin = job(2, "c", JobKind::kStencil, 4, 64, 6);
  thin.ny = 4;  // fewer than two slabs per device
  jobs.push_back(thin);

  ServeConfig cfg = open_loop_config(vgpu::MachineSpec::hgx_a100(4));
  const ServeReport rep = serve::run_serve(cfg, jobs);
  EXPECT_EQ(rep.fleet.rejected, 2);
  EXPECT_EQ(rep.fleet.completed, 1);
  EXPECT_EQ(rep.fleet.verified, 1);
  EXPECT_EQ(rep.jobs[0].out.detail.rfind("rejected:", 0), 0u);
  EXPECT_EQ(rep.jobs[2].out.detail.rfind("rejected:", 0), 0u);
  EXPECT_TRUE(rep.jobs[1].out.verified);
}

TEST(Serve, EveryServedKindCarriesItsJobLabelInHangReports) {
  // One job of each kind on a 2-device slice, every signal lost and nothing
  // retries: each job strands on its first signal wait. The wait's actor is
  // one of the job's kernel groups, so the report must carry the job's
  // label as the actor's bracketed suffix. Flag names carry the label too,
  // so only the suffix shows the launch bound the job's streams.
  const JobKind kinds[] = {JobKind::kStencil, JobKind::kCg,
                           JobKind::kDacelite, JobKind::kHistogram,
                           JobKind::kSparseCg};
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    std::string tenant = "t";
    tenant += std::to_string(i);
    JobSpec j = job(i, tenant, kinds[i], 2, 48, 4);
    j.faulty = true;
    jobs.push_back(j);
  }
  ServeConfig cfg;
  cfg.machine = vgpu::MachineSpec::hgx_a100(8);
  cfg.machine.faults.seed = 1;
  cfg.machine.faults.rate = 1.0;
  cfg.machine.faults.classes = fault::kClassSignalLost;
  cfg.machine.faults.resilience = fault::Resilience::kNone;
  cfg.arrival.mode = ArrivalConfig::Mode::kClosed;
  cfg.arrival.concurrency = 0;
  cfg.compute_isolated = false;
  const ServeReport rep = serve::run_serve(cfg, jobs);

  ASSERT_FALSE(rep.hang_report.empty());
  for (const JobSpec& j : jobs) {
    std::string suffix = "[j";
    suffix += std::to_string(j.id);
    suffix += ':';
    suffix += j.tenant;
    suffix += ':';
    suffix += serve::name(j.kind);
    suffix += "] blocked on";
    EXPECT_NE(rep.hang_report.find(suffix), std::string::npos)
        << suffix << '\n'
        << rep.hang_report;
  }
}

}  // namespace
