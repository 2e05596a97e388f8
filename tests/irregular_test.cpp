// Irregular-workload suite (`ctest -L irregular`): the generalized
// histogram's data-dependent aggregation must be bitwise-deterministic
// under every policy triple, on every machine model, at every engine
// thread count — and its skew knob must actually produce the partition
// imbalance the contention figures claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cpufree/metrics.hpp"
#include "exec/policy.hpp"
#include "fault/schedule.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"
#include "solvers/sparse_cg.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

using exec::CommPolicy;
using exec::LaunchPolicy;
using exec::Plan;
using exec::SyncPolicy;
using vgpu::MachineSpec;
using workloads::HistogramConfig;
using workloads::HistogramResult;

HistogramConfig small_hist() {
  HistogramConfig cfg;
  cfg.bins = 97;  // prime: uneven owner split on every device count
  cfg.keys_per_round = 512;
  cfg.rounds = 4;
  cfg.threads_per_block = 128;
  cfg.persistent_blocks = 8;
  return cfg;
}

/// Every valid policy triple the histogram runs under.
std::vector<Plan> hist_plans() {
  return {
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
}

MachineSpec machine_model(int which, int devices) {
  switch (which) {
    case 0:
      return MachineSpec::hgx_a100(devices);
    case 1:
      return MachineSpec::dgx_pcie(devices);
    default:
      return MachineSpec::multi_node(2, devices / 2);
  }
}

TEST(Reference, MassConservation) {
  // Every key's weight lands in exactly one bin: the global sum equals the
  // sum of the weight streams.
  const HistogramConfig cfg = small_hist();
  const std::vector<double> bins = workloads::histogram_reference(cfg, 3);
  double total = 0.0;
  for (double b : bins) total += b;
  double expect = 0.0;
  for (int t = 1; t <= cfg.rounds; ++t) {
    for (int pe = 0; pe < 3; ++pe) {
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        expect += workloads::histogram_key_weight(cfg, pe, t, i);
      }
    }
  }
  EXPECT_NEAR(total, expect, 1e-9 * expect);
}

TEST(Reference, PartitionedMergeReordersOnlyRoundoff) {
  // The owner-partitioned two-stage reduction (per-source partials, then a
  // source-ordered merge) only reorders a naive key-order accumulation of
  // the SAME streams; bins agree to roundoff.
  const HistogramConfig cfg = small_hist();
  const int ranks = 4;
  const std::vector<double> staged =
      workloads::histogram_reference(cfg, ranks);
  std::vector<double> naive(cfg.bins, 0.0);
  for (int t = 1; t <= cfg.rounds; ++t) {
    for (int pe = 0; pe < ranks; ++pe) {
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        naive[workloads::histogram_key_bin(cfg, pe, t, i)] +=
            workloads::histogram_key_weight(cfg, pe, t, i);
      }
    }
  }
  ASSERT_EQ(staged.size(), naive.size());
  for (std::size_t i = 0; i < staged.size(); ++i) {
    EXPECT_NEAR(staged[i], naive[i], 1e-12 * (1.0 + naive[i]))
        << "bin " << i;
  }
}

TEST(Imbalance, SkewConcentratesTheHotOwner) {
  HistogramConfig cfg = small_hist();
  cfg.skew = 0;
  const double uniform = workloads::histogram_imbalance(cfg, 4);
  cfg.skew = 3;
  const double skewed = workloads::histogram_imbalance(cfg, 4);
  EXPECT_GE(uniform, 1.0);
  // u^4 keys pile onto the low bins, all owned by PE 0: the hot owner takes
  // a large multiple of the mean update load.
  EXPECT_GT(skewed, 1.5 * uniform);
  EXPECT_LE(skewed, 4.0);  // cannot exceed ranks
}

class HistVariantSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HistVariantSweep, MatchesReferenceBitwise) {
  const auto [plan_idx, model, devices] = GetParam();
  const Plan plan = hist_plans()[static_cast<std::size_t>(plan_idx)];
  HistogramConfig cfg = small_hist();
  cfg.skew = 2;  // data-dependent comm: some (source, owner) edges are empty
  const std::vector<double> ref =
      workloads::histogram_reference(cfg, devices);
  const HistogramResult got =
      workloads::run_histogram(machine_model(model, devices), cfg, plan);
  ASSERT_EQ(got.bins.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got.bins[i], ref[i]) << "bin " << i;
  }
  EXPECT_GE(got.imbalance, 1.0);
  EXPECT_GT(got.metrics.total_ms(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, HistVariantSweep,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 3),
                       ::testing::Values(2, 4)));

TEST(HistDeterminism, BitIdenticalAcrossEngineThreads) {
  // The engine runs each simulation on one thread: a rerun must reproduce
  // the bins and the timing bit for bit.
  const HistogramConfig cfg = small_hist();
  const Plan plan = hist_plans()[4];  // CPU-Free
  const MachineSpec spec = MachineSpec::hgx_a100(4);
  const HistogramResult golden = workloads::run_histogram(spec, cfg, plan);
  const HistogramResult got = workloads::run_histogram(spec, cfg, plan);
  EXPECT_EQ(got.bins, golden.bins);
  EXPECT_EQ(got.metrics.total_ms(), golden.metrics.total_ms());
}

TEST(HistFaults, RetryLadderStillBitwiseCorrect) {
  // Signal-loss faults + the retry rung: the aggregation must re-deliver
  // and still match the reference bitwise (payloads are re-put verbatim).
  HistogramConfig cfg = small_hist();
  cfg.rounds = 3;
  MachineSpec spec = MachineSpec::hgx_a100(2);
  spec.faults.seed = 7;
  spec.faults.rate = 0.05;
  spec.faults.resilience = fault::Resilience::kRetry;
  const std::vector<double> ref = workloads::histogram_reference(cfg, 2);
  const HistogramResult got =
      workloads::run_histogram(spec, cfg, hist_plans()[4]);
  EXPECT_EQ(got.bins, ref);
}

TEST(HistSplit, OwnerPartitionCoversEveryBin) {
  // Every bin must be owned exactly once, on uneven owner splits and on
  // splits with more owners than bins (serve::validate rejects those, the
  // runs do not), whose trailing owners own nothing: every plan's fold must
  // place each key in its owner's slice, and its merge fold what it placed.
  for (const std::size_t bins : {1U, 2U, 3U, 5U, 7U, 2053U}) {
    for (int ranks = 1; ranks <= 8; ++ranks) {
      HistogramConfig cfg = small_hist();
      cfg.bins = bins;
      cfg.keys_per_round = 64;
      cfg.rounds = 2;
      const std::vector<double> ref =
          workloads::histogram_reference(cfg, ranks);
      const std::vector<Plan> plans = hist_plans();
      for (std::size_t p = 0; p < plans.size(); ++p) {
        const HistogramResult got = workloads::run_histogram(
            MachineSpec::hgx_a100(ranks), cfg, plans[p]);
        EXPECT_EQ(got.bins, ref)
            << bins << " bins, ranks " << ranks << ", plan " << p;
      }
    }
  }
}

// --- Sparse SpMV-CG -----------------------------------------------------------

solvers::SparseCgConfig small_sparse(double imbalance) {
  solvers::SparseCgConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.max_iterations = 40;
  cfg.tolerance = 1e-10;
  cfg.persistent_blocks = 12;
  cfg.imbalance = imbalance;
  return cfg;
}

Plan sparse_cpufree_plan() {
  return {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
          SyncPolicy::kIterationFlags, "sparse_cg_cpufree"};
}

Plan sparse_baseline_plan() {
  return {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
          SyncPolicy::kHostBarrier, "sparse_cg"};
}

TEST(WeightedSplit, EvenWhenBalanced) {
  const auto rows = solvers::split_rows_weighted(24, 4, 1.0);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t r : rows) EXPECT_EQ(r, 6u);
}

TEST(WeightedSplit, ConservesRowsAndTapers) {
  for (double ratio : {1.0, 2.0, 4.0, 7.5}) {
    for (int ranks : {2, 3, 4, 8}) {
      const auto rows = solvers::split_rows_weighted(64, ranks, ratio);
      std::size_t total = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        total += rows[i];
        EXPECT_GE(rows[i], 2u) << "ranks=" << ranks << " ratio=" << ratio;
        if (i > 0) {
          EXPECT_LE(rows[i], rows[i - 1])
              << "taper must be monotone, ranks=" << ranks
              << " ratio=" << ratio;
        }
      }
      EXPECT_EQ(total, 64u) << "ranks=" << ranks << " ratio=" << ratio;
    }
  }
  // The realized ratio approaches the requested one.
  const auto rows = solvers::split_rows_weighted(100, 4, 4.0);
  EXPECT_GE(rows.front(), 3 * rows.back());
}

TEST(WeightedSplit, ExtremeShareIsBoundedByTheRowsLeft) {
  // At ny = SIZE_MAX and ratio 1e17 the first rank's share rounds up to
  // 2^64, past the range of size_t. The split still conserves the rows
  // (no wrap) and keeps two rows on every rank.
  constexpr std::size_t kNy = std::numeric_limits<std::size_t>::max();
  const auto rows = solvers::split_rows_weighted(kNy, 2, 1e17);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0] + rows[1], kNy);
  EXPECT_GE(rows[1], 2u);
  EXPECT_GE(rows[0], rows[1]);
}

TEST(WeightedSplit, ImbalanceFactorGrowsWithRatio) {
  const double even = solvers::sparse_partition_imbalance(small_sparse(1.0), 4);
  const double skewed =
      solvers::sparse_partition_imbalance(small_sparse(4.0), 4);
  EXPECT_NEAR(even, 1.0, 0.1);
  EXPECT_GT(skewed, 1.4);
}

/// Runs `body`, which must throw std::invalid_argument whose message
/// contains each of `needles`.
template <class Fn>
void expect_invalid(const char* entry, const std::vector<std::string>& needles,
                    Fn&& body) {
  try {
    body();
    ADD_FAILURE() << entry << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos) << entry << ": " << what;
    }
  }
}

TEST(WeightedSplit, RejectsImbalanceNoSplitCanWeight) {
  // An infinite, NaN or huge ratio used to reach a size_t cast as a NaN or
  // infinite share. Every entry point rejects it before splitting, naming
  // the value, on one rank as on four.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<double, std::string> bad[] = {
      {kInf, "inf"},
      {-kInf, "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {1e308, "1e+308"},
      {2 * solvers::kMaxImbalance, "2e+288"},
  };
  for (const auto& [value, text] : bad) {
    const std::vector<std::string> named{"imbalance " + text +
                                         " must be finite"};
    for (int ranks : {1, 4}) {
      solvers::SparseCgConfig cfg = small_sparse(value);
      expect_invalid("split_rows_weighted", named, [&] {
        (void)solvers::split_rows_weighted(cfg.ny, ranks, value);
      });
      expect_invalid("csr_overflow", named,
                     [&] { (void)solvers::csr_overflow(cfg, ranks); });
      expect_invalid("sparse_partition_imbalance", named, [&] {
        (void)solvers::sparse_partition_imbalance(cfg, ranks);
      });
      expect_invalid("sparse_operator", named, [&] {
        (void)solvers::sparse_operator(cfg, ranks);
      });
      expect_invalid("sparse_cg_reference", named, [&] {
        (void)solvers::sparse_cg_reference(cfg, ranks);
      });
      const MachineSpec spec = MachineSpec::hgx_a100(ranks);
      for (const Plan& plan : {sparse_cpufree_plan(), sparse_baseline_plan()}) {
        expect_invalid("run_sparse_cg", named, [&] {
          (void)solvers::run_sparse_cg(spec, cfg, plan);
        });
      }
      expect_invalid("CgCpufreeJob", named, [&] {
        vgpu::Machine machine(spec);
        vshmem::World world(machine);
        solvers::CgCpufreeJob job(world, cfg);
      });
      cfg.functional = false;
      expect_invalid("run_sparse_cg timing-only", named, [&] {
        (void)solvers::run_sparse_cg(spec, cfg, sparse_cpufree_plan());
      });
    }
  }
}

TEST(WeightedSplit, RejectsFewerThanOneRank) {
  // Zero ranks used to split into one slab (the reference then reported
  // convergence after one iteration with rr 0) and -1 into a vector of
  // SIZE_MAX rows. Every CG entry point the split serves now names the
  // count instead, the matrix-free reference included.
  for (int ranks : {0, -1}) {
    const std::vector<std::string> named{"ranks " + std::to_string(ranks) +
                                         " must be at least 1"};
    const solvers::SparseCgConfig cfg = small_sparse(1.0);
    expect_invalid("split_rows_weighted", named, [&] {
      (void)solvers::split_rows_weighted(cfg.ny, ranks, 1.0);
    });
    expect_invalid("csr_overflow", named,
                   [&] { (void)solvers::csr_overflow(cfg, ranks); });
    expect_invalid("sparse_partition_imbalance", named, [&] {
      (void)solvers::sparse_partition_imbalance(cfg, ranks);
    });
    expect_invalid("sparse_operator", named,
                   [&] { (void)solvers::sparse_operator(cfg, ranks); });
    expect_invalid("sparse_cg_reference", named, [&] {
      (void)solvers::sparse_cg_reference(cfg, ranks);
    });
    solvers::CgConfig stencil;
    stencil.nx = cfg.nx;
    stencil.ny = cfg.ny;
    expect_invalid("cg_reference", named,
                   [&] { (void)solvers::cg_reference(stencil, ranks); });
  }
}

TEST(JobMode, SpawnableJobsRejectAConfigWhoseModeIsNotTheWorlds) {
  // The World's mode decides whether puts copy payloads, the config's how a
  // job sizes and fills its arrays: a timing-only CG config on a functional
  // World used to overrun its one-element vectors on the first halo put,
  // and a histogram computed under a mode its World did not share. Every
  // spawnable job rejects the mismatch both ways before allocating anything,
  // naming both values.
  for (const bool world_functional : {true, false}) {
    const std::string job_mode = world_functional ? "false" : "true";
    const std::string world_mode = world_functional ? "true" : "false";
    vgpu::Machine machine(MachineSpec::hgx_a100(2));
    vshmem::World world(machine);
    world.set_functional(world_functional);
    const auto named = [&](const char* job) {
      return std::vector<std::string>{
          std::string(job) + ": the config's functional is " + job_mode,
          "the World's is " + world_mode};
    };
    solvers::CgConfig cg;
    cg.nx = cg.ny = 64;
    cg.max_iterations = 3;
    cg.functional = !world_functional;
    expect_invalid("CgCpufreeJob(CgConfig)", named("CgCpufreeJob"),
                   [&] { solvers::CgCpufreeJob job(world, cg); });
    solvers::SparseCgConfig sparse = small_sparse(2.0);
    sparse.functional = !world_functional;
    expect_invalid("CgCpufreeJob(SparseCgConfig)", named("CgCpufreeJob"),
                   [&] { solvers::CgCpufreeJob job(world, sparse); });
    HistogramConfig hist = small_hist();
    hist.functional = !world_functional;
    expect_invalid("HistogramCpufreeJob", named("HistogramCpufreeJob"),
                   [&] { workloads::HistogramCpufreeJob job(world, hist); });
    EXPECT_EQ(machine.peak_bytes(), 0u) << "world functional " << world_mode;
  }
}

/// Runs a functional CgCpufreeJob of `cfg` on a fresh `pes`-device World;
/// returns the machine's peak device bytes after checking the job against
/// its reference.
template <class Config>
std::size_t cg_job_peak_bytes(const Config& cfg, int pes) {
  vgpu::Machine machine(MachineSpec::hgx_a100(pes));
  vshmem::World world(machine);
  solvers::CgCpufreeJob job(world, cfg);
  machine.engine().spawn(job.task());
  machine.engine().run();
  EXPECT_EQ(job.rr_history(), job.reference().rr_history);
  return machine.peak_bytes();
}

TEST(CgFootprint, DeviceHeapHoldsOnlyPRAndQ) {
  // The host model keeps the vectors a verified result reads: p, r and q.
  // x and b are charged as device traffic but not stored. So a job's device
  // heap is three halo-extended vectors per PE, each as long as the largest
  // slice, plus its two rows of reduction slots; signals are engine flags,
  // not device memory.
  constexpr int kPes = 4;
  const auto footprint = [](std::size_t nx, std::size_t rows) {
    const auto pes = static_cast<std::size_t>(kPes);
    return pes * (3 * (rows + 2) * nx + 2 * pes) * sizeof(double);
  };

  solvers::CgConfig stencil;
  stencil.nx = 24;
  stencil.ny = 26;  // even split: 7, 7, 6, 6 rows
  stencil.max_iterations = 6;
  EXPECT_EQ(cg_job_peak_bytes(stencil, kPes), footprint(stencil.nx, 7));

  solvers::SparseCgConfig sparse = small_sparse(3.0);
  sparse.max_iterations = 6;
  const std::vector<std::size_t> rows =
      solvers::split_rows_weighted(sparse.ny, kPes, sparse.imbalance);
  EXPECT_EQ(cg_job_peak_bytes(sparse, kPes),
            footprint(sparse.nx, *std::max_element(rows.begin(), rows.end())));
}

TEST(WeightedSplit, EveryUsableImbalanceKeepsItsSplit) {
  // The bound itself is accepted, and finite values below 1 still clamp
  // to 1.
  EXPECT_EQ(solvers::split_rows_weighted(61, 4, solvers::kMaxImbalance),
            (std::vector<std::size_t>{29, 20, 10, 2}));
  const auto even = solvers::split_rows_weighted(61, 4, 1.0);
  for (double below : {0.5, 0.0, -0.0, -3.0, -1e300,
                       std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(solvers::split_rows_weighted(61, 4, below), even) << below;
  }
  // FNV-1a over the splits of 285 (imbalance, ranks, ny) cases, captured
  // before the bound existed: a finite value up to it keeps its split.
  std::uint64_t h = 1469598103934665603ull;
  int cases = 0;
  for (double imbalance : {-1e300, -3.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.5,
                           4.0, 7.5, 1e3, 1e9, 0x1p52, 0x1p53, 1e16, 1e17,
                           1e100, 1e200, 1e288}) {
    for (int ranks : {1, 2, 3, 4, 8}) {
      for (std::size_t ny : {16u, 61u, 1000u}) {
        for (std::size_t v : solvers::split_rows_weighted(ny, ranks,
                                                          imbalance)) {
          for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
          }
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 285);
  EXPECT_EQ(h, 0xa7dbcc8648d9db5cull);
}

/// Per-rank CSR nonzeros from csr_rank_nnz over the rows of one weighted
/// split.
std::vector<std::size_t> rank_nnz(std::size_t nx, std::size_t ny, int ranks,
                                  double imbalance) {
  std::vector<std::size_t> nnz;
  std::size_t off = 0;
  for (std::size_t rows : solvers::split_rows_weighted(ny, ranks, imbalance)) {
    nnz.push_back(solvers::csr_rank_nnz(rows, off, nx, ny));
    off += rows;
  }
  return nnz;
}

TEST(CsrNnz, MatchesTheBuiltMatrixOnEdgeShapes) {
  // Per-rank nonzeros of the CSR matrices the solver builds, captured when
  // the counts were still taken from the built matrices: one-column grids,
  // ny = 2*ranks, and splits whose last rank keeps fewer than two rows.
  using V = std::vector<std::size_t>;
  EXPECT_EQ(rank_nnz(1, 2, 1, 4.0), (V{4}));
  EXPECT_EQ(rank_nnz(1, 8, 4, 4.0), (V{5, 6, 6, 5}));
  EXPECT_EQ(rank_nnz(1, 16, 8, 4.0), (V{5, 6, 6, 6, 6, 6, 6, 5}));
  EXPECT_EQ(rank_nnz(3, 5, 3, 7.5), (V{23, 26, 10}));
  EXPECT_EQ(rank_nnz(3, 7, 4, 7.5), (V{23, 26, 26, 10}));
  EXPECT_EQ(rank_nnz(7, 1, 2, 1.0), (V{19, 0}));
  EXPECT_EQ(rank_nnz(24, 24, 4, 4.0), (V{1156, 826, 590, 212}));
}

TEST(CsrNnz, MatchesTheBuiltMatrixOnAShapeGrid) {
  // FNV-1a over every rank's nonzeros on 600 shapes, captured from the
  // built matrices.
  std::uint64_t h = 1469598103934665603ull;
  int shapes = 0;
  for (std::size_t nx : {1u, 2u, 3u, 7u, 24u}) {
    for (int ranks : {1, 2, 3, 4, 8}) {
      const std::size_t r2 = 2 * static_cast<std::size_t>(ranks);
      for (std::size_t ny : {std::size_t{1}, r2 - 1, r2, r2 + 1,
                             std::size_t{24}, std::size_t{61}}) {
        for (double imbalance : {1.0, 2.5, 4.0, 7.5}) {
          for (std::size_t v : rank_nnz(nx, ny, ranks, imbalance)) {
            for (int b = 0; b < 8; ++b) {
              h ^= (v >> (8 * b)) & 0xff;
              h *= 1099511628211ull;
            }
          }
          ++shapes;
        }
      }
    }
  }
  EXPECT_EQ(shapes, 600);
  EXPECT_EQ(h, 0xfdc4c301737c9f1dull);
}

/// FNV-1a over a 64-bit word's bytes, low byte first.
void fnv_word(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
}

TEST(SparseReference, ResidualHistoriesArePinned) {
  // The runs and the reference share one set of kernels, so comparing them
  // cannot notice a change in accumulation order. These values were
  // captured from the unfused kernels and pin it independently: one-column
  // grids (3-entry rows), two-column grids (4-entry rows), ny = 2*ranks,
  // both imbalances, and a tolerance that breaks early.
  std::uint64_t h = 1469598103934665603ull;
  int cases = 0;
  int early = 0;
  for (std::size_t nx : {1u, 2u, 3u, 7u}) {
    for (int ranks = 1; ranks <= 4; ++ranks) {
      const std::size_t r2 = 2 * static_cast<std::size_t>(ranks);
      for (std::size_t ny : {r2, r2 + 1, std::size_t{13}}) {
        for (double imbalance : {1.0, 4.0}) {
          for (double tolerance : {1e-10, 1e-3}) {
            solvers::SparseCgConfig cfg;
            cfg.nx = nx;
            cfg.ny = ny;
            cfg.max_iterations = 12;
            cfg.tolerance = tolerance;
            cfg.imbalance = imbalance;
            const solvers::CgResult ref =
                solvers::sparse_cg_reference(cfg, ranks);
            fnv_word(h, static_cast<std::uint64_t>(ref.iterations_run));
            for (double rr : ref.rr_history) {
              fnv_word(h, std::bit_cast<std::uint64_t>(rr));
            }
            if (ref.iterations_run < cfg.max_iterations) ++early;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 192);
  EXPECT_GT(early, 0);
  EXPECT_LT(early, cases);
  EXPECT_EQ(h, 0x3449a1001c3e584dull);
}

TEST(SparseReference, SmallResidualHistoryIsSpelledOut) {
  // 3x6 grid over 2 ranks at imbalance 4 (4 + 2 rows): every rr bit pattern
  // of the solve, captured from the unfused kernels.
  solvers::SparseCgConfig cfg;
  cfg.nx = 3;
  cfg.ny = 6;
  cfg.imbalance = 4.0;
  const solvers::CgResult ref = solvers::sparse_cg_reference(cfg, 2);
  std::vector<std::uint64_t> bits;
  for (double rr : ref.rr_history) {
    bits.push_back(std::bit_cast<std::uint64_t>(rr));
  }
  const std::vector<std::uint64_t> expect = {
      0x402065a6377c5a8aull, 0x3ff56a8a20f8d77eull, 0x3fc830b256c6c216ull,
      0x3f9610710794f1c2ull, 0x3f6938e943076279ull, 0x3f251093e6c970bbull,
      0x3eecbd3804ef88f8ull, 0x3ec35376b00401d4ull, 0x3ea1efc0be44b653ull,
      0x3e53448080d6ba92ull, 0x3e174727a2bbe37full, 0x3dd166bd3ebfd1f8ull};
  EXPECT_EQ(bits, expect);
  EXPECT_EQ(ref.iterations_run, static_cast<int>(expect.size()));
  ASSERT_FALSE(ref.rr_history.empty());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.final_rr), expect.back());
}

/// Test-only CSR oracle: the stored matrix the solver used to build, with
/// each row's entries in ascending column order (up, west, diagonal, east,
/// down) and columns indexing the slice's halo-extended layout.
struct CsrMatrix {
  std::vector<std::uint32_t> row_ptr{0};
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
};

CsrMatrix build_csr(const solvers::CsrSlice& s) {
  CsrMatrix m;
  auto push = [&m](std::size_t col, double v) {
    m.cols.push_back(static_cast<std::uint32_t>(col));
    m.vals.push_back(v);
  };
  for (std::size_t r = 1; r <= s.rows; ++r) {
    const std::size_t gy = s.offset + r - 1;
    for (std::size_t j = 0; j < s.nx; ++j) {
      if (gy > 0) push(s.idx(r - 1, j), -1.0);
      if (j > 0) push(s.idx(r, j - 1), -1.0);
      push(s.idx(r, j), 4.0);
      if (j + 1 < s.nx) push(s.idx(r, j + 1), -1.0);
      if (gy + 1 < s.ny) push(s.idx(r + 1, j), -1.0);
      m.row_ptr.push_back(static_cast<std::uint32_t>(m.cols.size()));
    }
  }
  return m;
}

/// The general CSR loop over `m`'s rows: q = A p, then dot(p, q) in row
/// order.
double csr_spmv_dot(const CsrMatrix& m, std::size_t nx,
                    const std::vector<double>& p, std::vector<double>& q) {
  double pq = 0.0;
  for (std::size_t row = 0; row + 1 < m.row_ptr.size(); ++row) {
    double acc = 0.0;
    for (std::uint32_t e = m.row_ptr[row]; e < m.row_ptr[row + 1]; ++e) {
      acc += m.vals[e] * p[m.cols[e]];
    }
    q[nx + row] = acc;
    pq += p[nx + row] * acc;
  }
  return pq;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

TEST(SparseKernel, MatchesTheCsrOracleBitwise) {
  // The matrix-free spmv_dot against the stored matrix's general loop on
  // every slice of the pinned-history shapes: every q entry (halo rows
  // included, which neither may write) and dot(p, q) must have the oracle's
  // bits, so -0.0 and +0.0 differ, and the slice's simulated nonzero count
  // must be the matrix's. p, halo rows included, mixes signed
  // zeros with uniform draws of both signs over a range of magnitudes; a
  // second fill of signed zeros alone makes every sign rule show.
  int slices = 0;
  for (std::size_t nx : {1u, 2u, 3u, 7u}) {
    for (int ranks = 1; ranks <= 4; ++ranks) {
      const std::size_t r2 = 2 * static_cast<std::size_t>(ranks);
      for (std::size_t ny : {r2, r2 + 1, std::size_t{13}}) {
        for (double imbalance : {1.0, 4.0}) {
          solvers::SparseCgConfig cfg;
          cfg.nx = nx;
          cfg.ny = ny;
          cfg.imbalance = imbalance;
          for (const solvers::CsrSlice& s :
               solvers::sparse_operator(cfg, ranks)) {
            const auto id = static_cast<std::uint64_t>(slices++);
            const CsrMatrix csr = build_csr(s);
            EXPECT_EQ(csr.cols.size(), s.nnz) << "nx=" << nx << " ny=" << ny;
            for (std::uint64_t kinds : {4u, 2u}) {
              std::vector<double> p((s.rows + 2) * nx);
              for (std::size_t i = 0; i < p.size(); ++i) {
                const double u = sim::stream_uniform(16, id, i, kinds);
                const std::uint64_t draw = sim::stream_mix(16, id, i, 1);
                const int exp = static_cast<int>((draw >> 8) % 41) - 20;
                switch (draw % kinds) {
                  case 0: p[i] = 0.0; break;
                  case 1: p[i] = -0.0; break;
                  case 2: p[i] = std::ldexp(u, exp); break;
                  default: p[i] = -std::ldexp(u, exp); break;
                }
              }
              std::vector<double> want(p.size(), 0.5);
              std::vector<double> got(p.size(), 0.5);
              const double want_pq = csr_spmv_dot(csr, nx, p, want);
              const double got_pq = s.spmv_dot(p, got);
              const std::string where =
                  "nx=" + std::to_string(nx) + " ny=" + std::to_string(ny) +
                  " ranks=" + std::to_string(ranks) +
                  " offset=" + std::to_string(s.offset) +
                  " kinds=" + std::to_string(kinds);
              EXPECT_EQ(bits_of(got), bits_of(want)) << where;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got_pq),
                        std::bit_cast<std::uint64_t>(want_pq))
                  << where;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(slices, 240);
}

TEST(SparseReference, ConvergesLikeDenseCg) {
  // Same operator as the matrix-free CG: with a balanced split the CSR
  // reference must converge in a comparable iteration count.
  const solvers::CgResult ref = solvers::sparse_cg_reference(small_sparse(1.0), 1);
  ASSERT_GT(ref.rr_history.size(), 3u);
  EXPECT_LT(ref.rr_history.back(), 1e-6 * ref.rr_history.front());
}

class SparseCgSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, double>> {};

TEST_P(SparseCgSweep, MatchesPartitionedReferenceBitwise) {
  const auto [devices, cpu_free, imbalance] = GetParam();
  const solvers::SparseCgConfig cfg = small_sparse(imbalance);
  const solvers::CgResult ref = solvers::sparse_cg_reference(cfg, devices);
  const solvers::CgResult got = solvers::run_sparse_cg(
      MachineSpec::hgx_a100(devices), cfg,
      cpu_free ? sparse_cpufree_plan() : sparse_baseline_plan());
  EXPECT_EQ(got.iterations_run, ref.iterations_run);
  ASSERT_EQ(got.rr_history.size(), ref.rr_history.size());
  for (std::size_t i = 0; i < ref.rr_history.size(); ++i) {
    EXPECT_EQ(got.rr_history[i], ref.rr_history[i]) << "iteration " << i + 1;
  }
  EXPECT_EQ(got.final_rr, ref.final_rr);
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, SparseCgSweep,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool(),
                       ::testing::Values(1.0, 4.0)));

TEST(SparseCg, BitwiseOnEveryMachineModel) {
  const solvers::SparseCgConfig cfg = small_sparse(4.0);
  const solvers::CgResult ref = solvers::sparse_cg_reference(cfg, 4);
  for (int model = 0; model < 3; ++model) {
    const solvers::CgResult got = solvers::run_sparse_cg(
        machine_model(model, 4), cfg, sparse_cpufree_plan());
    EXPECT_EQ(got.final_rr, ref.final_rr) << "model " << model;
    EXPECT_EQ(got.rr_history, ref.rr_history) << "model " << model;
  }
}

TEST(SparseCg, BitIdenticalAcrossEngineThreads) {
  // The engine runs each simulation on one thread: a rerun must reproduce
  // the residual history and the timing bit for bit.
  const solvers::SparseCgConfig cfg = small_sparse(4.0);
  const MachineSpec spec = MachineSpec::hgx_a100(4);
  const solvers::CgResult golden =
      solvers::run_sparse_cg(spec, cfg, sparse_cpufree_plan());
  const solvers::CgResult got =
      solvers::run_sparse_cg(spec, cfg, sparse_cpufree_plan());
  EXPECT_EQ(got.rr_history, golden.rr_history);
  EXPECT_EQ(got.metrics.total_ms(), golden.metrics.total_ms());
}

TEST(SparseCg, ImbalanceCostsTheBaselineMore) {
  // The straggler claim behind the workload: the heavy rank slows every
  // variant down, but the baseline stacks per-iteration host round-trips on
  // top of the straggler wait, so the CPU-Free variant keeps a clear
  // absolute lead under imbalance.
  // Compute-bound sizing (timing-only): at tiny problems the per-iteration
  // reduction latency hides the heavy rank entirely.
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.nx = 4096;
  cfg.ny = 256;
  cfg.functional = false;  // fixed iteration count: compare pure throughput
  cfg.max_iterations = 12;
  const double cf_even =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_cpufree_plan())
          .metrics.total_ms();
  const double bl_even =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_baseline_plan())
          .metrics.total_ms();
  cfg.imbalance = 4.0;
  const double cf_skew =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_cpufree_plan())
          .metrics.total_ms();
  const double bl_skew =
      solvers::run_sparse_cg(MachineSpec::hgx_a100(4), cfg,
                             sparse_baseline_plan())
          .metrics.total_ms();
  EXPECT_GT(cf_skew, cf_even);  // imbalance is not free anywhere
  EXPECT_GT(bl_skew, bl_even);
  // The CPU-Free variant keeps its absolute advantage under imbalance: the
  // baseline pays the heavy rank AND the per-iteration host round-trips.
  EXPECT_LT(cf_skew, bl_skew);
}

/// Runs `body`, which must throw std::invalid_argument naming nx, the rows
/// and the rank of a slice too wide for 32-bit CSR.
template <class Fn>
void expect_csr_overflow(const char* entry, Fn&& body) {
  expect_invalid(entry, {"nx 2147483648", "rank 0", "4 rows"},
                 std::forward<Fn>(body));
}

TEST(SparseCg, RejectsSlicesThatOverflow32BitCsr) {
  // 6 halo-extended rows of 2^31 columns: every entry point must reject
  // the shape from the row split alone, before allocating a vector (one
  // would need about 100 GB).
  solvers::SparseCgConfig cfg = small_sparse(1.0);
  cfg.nx = std::size_t{1} << 31;
  cfg.ny = 4;
  EXPECT_NE(solvers::csr_overflow(cfg, 1), "");
  expect_csr_overflow("sparse_operator",
                      [&] { (void)solvers::sparse_operator(cfg, 1); });
  expect_csr_overflow("sparse_cg_reference",
                      [&] { (void)solvers::sparse_cg_reference(cfg, 1); });
  for (const Plan& plan : {sparse_cpufree_plan(), sparse_baseline_plan()}) {
    expect_csr_overflow("run_sparse_cg", [&] {
      (void)solvers::run_sparse_cg(MachineSpec::hgx_a100(1), cfg, plan);
    });
  }
  cfg.functional = false;  // timing-only runs share the bound
  expect_csr_overflow("run_sparse_cg timing-only", [&] {
    (void)solvers::run_sparse_cg(MachineSpec::hgx_a100(1), cfg,
                                 sparse_cpufree_plan());
  });
  expect_csr_overflow("CgCpufreeJob", [&] {
    vgpu::Machine machine(MachineSpec::hgx_a100(1));
    vshmem::World world(machine);
    solvers::CgCpufreeJob job(world, cfg);
  });
}

TEST(SparseCsr, BoundIsExactAtUint32Max) {
  // One rank of 3 rows has a (3+2)*nx layout and 13*nx - 6 nonzeros, so
  // the nonzeros set the bound: nx = 330382100 is the widest grid whose
  // count stays at or below UINT32_MAX = 4294967295.
  constexpr std::size_t kMax = 4294967295u;
  solvers::SparseCgConfig cfg;
  cfg.ny = 3;
  cfg.nx = kMax / 5 + 1;
  EXPECT_NE(solvers::csr_overflow(cfg, 1).find("3 rows"), std::string::npos);
  cfg.nx = 330382100;
  EXPECT_EQ(solvers::csr_overflow(cfg, 1), "");
  cfg.nx = 330382101;
  EXPECT_NE(solvers::csr_overflow(cfg, 1), "");
  cfg.nx = std::numeric_limits<std::size_t>::max();
  EXPECT_NE(solvers::csr_overflow(cfg, 1), "");
  cfg.nx = 0;
  EXPECT_EQ(solvers::csr_overflow(cfg, 1), "");
}

TEST(SparseCsr, OperatorMatchesTheRowSplit) {
  const solvers::SparseCgConfig cfg = small_sparse(4.0);
  const solvers::SparseOperator op = solvers::sparse_operator(cfg, 4);
  const auto rows = solvers::split_rows_weighted(cfg.ny, 4, cfg.imbalance);
  ASSERT_EQ(op.size(), rows.size());
  std::size_t off = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const solvers::CsrSlice& s = op[r];
    EXPECT_EQ(s.rows, rows[r]);
    EXPECT_EQ(s.offset, off);
    EXPECT_EQ(s.nx, cfg.nx);
    EXPECT_EQ(s.ny, cfg.ny);
    EXPECT_EQ(s.nnz, solvers::csr_rank_nnz(rows[r], off, cfg.nx, cfg.ny));
    off += rows[r];
  }
}

TEST(SharedGeometry, ConcurrentReadersMatchSerialRunsAndReferences) {
  // Four threads at once run both sparse CG plans and the histogram, whose
  // runs share one edge table; every result must equal a serial run and the
  // reference bitwise.
  const solvers::SparseCgConfig scfg = small_sparse(4.0);
  HistogramConfig hcfg = small_hist();
  hcfg.skew = 2;
  const MachineSpec spec = MachineSpec::hgx_a100(4);
  constexpr int kThreads = 4;
  constexpr int kJobs = 3;  // cpufree sparse, baseline sparse, histogram
  std::vector<solvers::CgResult> sparse(kThreads * 2);
  std::vector<HistogramResult> hist(kThreads);
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        for (int k = 0; k < kJobs; ++k) {
          const int j = (i + k) % kJobs;  // each thread starts elsewhere
          if (j == 2) {
            hist[static_cast<std::size_t>(i)] =
                workloads::run_histogram(spec, hcfg, hist_plans()[4]);
          } else {
            sparse[static_cast<std::size_t>(2 * i + j)] =
                solvers::run_sparse_cg(spec, scfg,
                                       j == 0 ? sparse_cpufree_plan()
                                              : sparse_baseline_plan());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const solvers::CgResult ref = solvers::sparse_cg_reference(scfg, 4);
  const solvers::CgResult serial[] = {
      solvers::run_sparse_cg(spec, scfg, sparse_cpufree_plan()),
      solvers::run_sparse_cg(spec, scfg, sparse_baseline_plan())};
  const std::vector<double> hist_ref = workloads::histogram_reference(hcfg, 4);
  const HistogramResult hist_serial =
      workloads::run_histogram(spec, hcfg, hist_plans()[4]);
  EXPECT_EQ(hist_serial.bins, hist_ref);
  for (int i = 0; i < kThreads; ++i) {
    for (int j = 0; j < 2; ++j) {
      const solvers::CgResult& got = sparse[static_cast<std::size_t>(2 * i + j)];
      EXPECT_EQ(got.rr_history, ref.rr_history) << "thread " << i;
      EXPECT_EQ(got.rr_history, serial[j].rr_history) << "thread " << i;
      EXPECT_EQ(got.iterations_run, ref.iterations_run) << "thread " << i;
      EXPECT_EQ(got.metrics.total_ms(), serial[j].metrics.total_ms())
          << "thread " << i;
    }
    const HistogramResult& h = hist[static_cast<std::size_t>(i)];
    EXPECT_EQ(h.bins, hist_ref) << "thread " << i;
    EXPECT_EQ(h.imbalance, hist_serial.imbalance) << "thread " << i;
    EXPECT_EQ(h.metrics.total_ms(), hist_serial.metrics.total_ms())
        << "thread " << i;
  }
}

TEST(SparseCg, RejectsUnsupportedPlansNamingTheComponent) {
  const solvers::SparseCgConfig cfg = small_sparse(1.0);
  try {
    (void)solvers::run_sparse_cg(
        MachineSpec::hgx_a100(2), cfg,
        {LaunchPolicy::kHostLoop, CommPolicy::kPeerStore,
         SyncPolicy::kHostBarrier, "sparse_cg"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_sparse_cg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("peer_store"), std::string::npos);
  }
  try {
    (void)solvers::run_sparse_cg(
        MachineSpec::hgx_a100(2), cfg,
        {LaunchPolicy::kPersistent, CommPolicy::kStagedCopy,
         SyncPolicy::kIterationFlags, "sparse_cg"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Invalid triple: the generic validity message names the comm component.
    EXPECT_NE(std::string(e.what()).find("comm"), std::string::npos);
  }
}

// --- Pinned histogram digest -------------------------------------------------

void fnv_text(std::uint64_t& h, std::string_view text) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
}

/// Folds every checker-visible access into a digest in publication order,
/// naming each range by its allocation (addresses differ between runs).
class AccessDigest : public sim::Observer {
 public:
  void on_mem_block(const void* base, std::size_t, std::string_view name)
      override {
    names_[base] = std::string(name);
  }
  void on_access(const sim::Actor& actor, const sim::MemRange& range,
                 bool is_write, std::string_view what) override {
    fnv_text(h, actor.str());
    const auto it = names_.find(reinterpret_cast<const void*>(range.base));
    fnv_text(h, it == names_.end() ? std::string_view("?") : it->second);
    for (std::size_t v : {range.lo, range.hi, range.stride, range.elem,
                          range.count}) {
      fnv_word(h, v);
    }
    fnv_word(h, is_write ? 1 : 0);
    fnv_text(h, what);
    ++accesses;
  }

  std::uint64_t h = 1469598103934665603ull;
  int accesses = 0;

 private:
  std::map<const void*, std::string> names_;
};

TEST(HistogramDigest, GeneratedCasesArePinned) {
  // Every valid triple over uniform and skewed keys, 1-4 ranks and both
  // block sizes, each adding its bins, imbalance and metrics JSON; then one
  // observed run per triple adds its checker-visible accesses in order.
  std::uint64_t h = 1469598103934665603ull;
  int cases = 0;
  for (const Plan& plan : hist_plans()) {
    for (int skew : {0, 2}) {
      for (int ranks = 1; ranks <= 4; ++ranks) {
        for (int tpb : {256, 1024}) {
          HistogramConfig cfg = small_hist();
          cfg.skew = skew;
          cfg.threads_per_block = tpb;
          const HistogramResult r = workloads::run_histogram(
              MachineSpec::hgx_a100(ranks), cfg, plan);
          fnv_word(h, r.bins.size());
          for (double b : r.bins) fnv_word(h, std::bit_cast<std::uint64_t>(b));
          fnv_word(h, std::bit_cast<std::uint64_t>(r.imbalance));
          fnv_text(h, cpufree::to_json(r.metrics));
          ++cases;
        }
      }
    }
    AccessDigest observed;
    HistogramConfig cfg = small_hist();
    cfg.skew = 2;
    cfg.observer = &observed;
    static_cast<void>(
        workloads::run_histogram(MachineSpec::hgx_a100(3), cfg, plan));
    EXPECT_GT(observed.accesses, 0) << exec::name(plan.comm);
    fnv_word(h, observed.h);
    fnv_word(h, static_cast<std::uint64_t>(observed.accesses));
  }
  EXPECT_EQ(cases, 96);
  EXPECT_EQ(h, 0x1ceccfdde0c2f200ull);
}

}  // namespace
