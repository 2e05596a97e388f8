// Tests for the multi-GPU Conjugate Gradient solver: convergence of the
// serial reference, bitwise agreement of both distributed variants with the
// partition-shaped reference, device-side convergence decisions, and the
// CPU-Free performance advantage driven by per-iteration host syncs in the
// baseline. A digest over generated cases pins the simulated metrics and
// every residual bit of the matrix-free operator.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "serve/workload.hpp"
#include "solvers/cg.hpp"
#include "solvers/sparse_cg.hpp"
#include "vgpu/costmodel.hpp"

namespace {

using solvers::CgConfig;
using solvers::CgResult;
using vgpu::MachineSpec;

CgConfig small_cfg() {
  CgConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.max_iterations = 40;
  cfg.tolerance = 1e-10;
  cfg.persistent_blocks = 12;
  return cfg;
}

TEST(Reference, ResidualTrendsDown) {
  // CG's residual 2-norm may oscillate locally (only the A-norm of the error
  // is monotone); assert the overall trend: large decay end-to-end and no
  // catastrophic regression between consecutive iterations.
  const CgResult ref = solvers::cg_reference(small_cfg(), 1);
  ASSERT_GT(ref.rr_history.size(), 3u);
  EXPECT_LT(ref.rr_history.back(), 1e-6 * ref.rr_history.front());
  for (std::size_t i = 1; i < ref.rr_history.size(); ++i) {
    EXPECT_LT(ref.rr_history[i], 100.0 * ref.rr_history[i - 1])
        << "iteration " << i;
  }
}

TEST(Reference, ConvergesWithinBudget) {
  CgConfig cfg = small_cfg();
  cfg.max_iterations = 200;
  cfg.tolerance = 1e-16;
  const CgResult ref = solvers::cg_reference(cfg, 1);
  EXPECT_LT(ref.final_rr, 1e-16);
  EXPECT_LT(ref.iterations_run, 200);
}

TEST(Reference, PartitionShapeAffectsOnlyRoundoff) {
  // Different rank counts reorder the reductions; the solutions agree to
  // near machine precision (CG is stable here) but need not be bitwise.
  const CgResult a = solvers::cg_reference(small_cfg(), 1);
  const CgResult b = solvers::cg_reference(small_cfg(), 4);
  ASSERT_FALSE(a.rr_history.empty());
  ASSERT_FALSE(b.rr_history.empty());
  EXPECT_NEAR(a.rr_history[0], b.rr_history[0], 1e-12 * a.rr_history[0]);
}

class CgVariantSweep : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CgVariantSweep, MatchesPartitionedReferenceBitwise) {
  const auto [devices, cpu_free] = GetParam();
  const CgConfig cfg = small_cfg();
  const CgResult ref = solvers::cg_reference(cfg, devices);
  const CgResult got =
      cpu_free ? solvers::run_cg_cpufree(MachineSpec::hgx_a100(devices), cfg)
               : solvers::run_cg_baseline(MachineSpec::hgx_a100(devices), cfg);
  EXPECT_EQ(got.iterations_run, ref.iterations_run);
  ASSERT_EQ(got.rr_history.size(), ref.rr_history.size());
  for (std::size_t i = 0; i < ref.rr_history.size(); ++i) {
    EXPECT_EQ(got.rr_history[i], ref.rr_history[i]) << "iteration " << i + 1;
  }
  EXPECT_EQ(got.final_rr, ref.final_rr);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, CgVariantSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(false, true)));

TEST(CgConvergence, DeviceSideTerminationStopsEarly) {
  CgConfig cfg = small_cfg();
  cfg.max_iterations = 500;
  cfg.tolerance = 1e-14;
  const CgResult got = solvers::run_cg_cpufree(MachineSpec::hgx_a100(4), cfg);
  EXPECT_LT(got.final_rr, 1e-14);
  EXPECT_LT(got.iterations_run, 500);  // converged, did not run the budget
}

TEST(CgPerformance, CpuFreeBeatsBaseline) {
  // Timing-only: the baseline pays 3 kernel launches, 2 stream syncs for the
  // dot scalars, MPI reductions, and a host barrier per iteration; CPU-Free
  // pays device-side reductions only.
  CgConfig cfg;
  cfg.nx = 512;
  cfg.ny = 512;
  cfg.max_iterations = 50;
  cfg.functional = false;
  const auto base = solvers::run_cg_baseline(MachineSpec::hgx_a100(8), cfg);
  const auto free_r = solvers::run_cg_cpufree(MachineSpec::hgx_a100(8), cfg);
  EXPECT_LT(free_r.metrics.total, base.metrics.total);
}

TEST(CgProtocol, CorrectUnderTimingSkew) {
  // Device-side allreduce + halo protocol under heterogeneous devices.
  const int ranks = 4;
  vgpu::MachineSpec spec = MachineSpec::hgx_a100(ranks);
  for (int d = 0; d < ranks; ++d) {
    vgpu::DeviceSpec ds = spec.device;
    ds.dram_bw_gbps = spec.device.dram_bw_gbps / (1.0 + d);
    spec.device_overrides.push_back(ds);
  }
  const CgConfig cfg = small_cfg();
  const CgResult ref = solvers::cg_reference(cfg, ranks);
  const CgResult got = solvers::run_cg_cpufree(spec, cfg);
  EXPECT_EQ(got.rr_history, ref.rr_history);
}

TEST(CgPerformance, DeterministicAcrossRuns) {
  CgConfig cfg = small_cfg();
  const auto a = solvers::run_cg_cpufree(MachineSpec::hgx_a100(4), cfg);
  const auto b = solvers::run_cg_cpufree(MachineSpec::hgx_a100(4), cfg);
  EXPECT_EQ(a.metrics.total, b.metrics.total);
  EXPECT_EQ(a.final_rr, b.final_rr);
}

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

void fnv_history(std::uint64_t& h, const std::vector<double>& history) {
  fnv_word(h, history.size());
  for (double rr : history) fnv_word(h, std::bit_cast<std::uint64_t>(rr));
}

TEST(CgDigest, GeneratedCasesArePinned) {
  // Matrix-free CG on generated cases: 5 functional shapes (5x9 converges
  // early) and one timing-only 256^2, every rank count up to 8 that leaves
  // two rows per rank, on the NVLink and the PCIe machine. Each case adds
  // the reference's residual bits, and the metrics JSON, iteration count
  // and residual bits of both variants.
  struct Shape {
    std::size_t nx, ny;
    bool functional;
  };
  const Shape shapes[] = {{5, 9, true},   {17, 33, true}, {24, 24, true},
                          {48, 8, true},  {64, 64, true}, {256, 256, false}};
  std::uint64_t h = 1469598103934665603ull;
  int cases = 0;
  int early = 0;
  for (const Shape& shape : shapes) {
    for (int ranks : {1, 2, 3, 4, 8}) {
      if (shape.ny < 2 * static_cast<std::size_t>(ranks)) continue;
      for (bool pcie : {false, true}) {
        CgConfig cfg;
        cfg.nx = shape.nx;
        cfg.ny = shape.ny;
        cfg.max_iterations = shape.functional ? 40 : 20;
        cfg.tolerance = 1e-10;
        cfg.functional = shape.functional;
        const MachineSpec spec =
            pcie ? MachineSpec::dgx_pcie(ranks) : MachineSpec::hgx_a100(ranks);
        const CgResult free_r = solvers::run_cg_cpufree(spec, cfg);
        const CgResult base = solvers::run_cg_baseline(spec, cfg);
        if (shape.functional) {
          const CgResult ref = solvers::cg_reference(cfg, ranks);
          EXPECT_EQ(free_r.rr_history, ref.rr_history)
              << shape.nx << "x" << shape.ny << " r" << ranks;
          EXPECT_EQ(base.rr_history, ref.rr_history)
              << shape.nx << "x" << shape.ny << " r" << ranks;
          fnv_history(h, ref.rr_history);
          if (ref.iterations_run < cfg.max_iterations) ++early;
        }
        for (const CgResult* r : {&free_r, &base}) {
          fnv_text(h, cpufree::to_json(r->metrics));
          fnv_word(h, static_cast<std::uint64_t>(r->iterations_run));
          fnv_history(h, r->rr_history);
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 56);
  EXPECT_GT(early, 0);
  EXPECT_EQ(h, 0x1116362843a7b583ull);
}

TEST(CgSplit, BalancedWeightedSplitIsTheEvenSplit) {
  // The matrix-free solver's even slab split, kept here as the oracle: the
  // first ny % ranks ranks take one extra row.
  auto even = [](std::size_t ny, int ranks) {
    const auto n = static_cast<std::size_t>(ranks);
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < n; ++r) {
      rows.push_back(ny / n + (r < ny % n ? 1 : 0));
    }
    return rows;
  };
  int cases = 0;
  for (std::size_t ny = 0; ny <= 600; ++ny) {
    for (int ranks = 1; ranks <= 16; ++ranks) {
      ASSERT_EQ(solvers::split_rows_weighted(ny, ranks, 1.0), even(ny, ranks))
          << "ny " << ny << " ranks " << ranks;
      ++cases;
    }
  }
  for (std::size_t ny : {std::size_t{1} << 20, std::size_t{4294967301},
                         std::size_t{1000000000003}}) {
    for (int ranks = 1; ranks <= 16; ++ranks) {
      ASSERT_EQ(solvers::split_rows_weighted(ny, ranks, 1.0), even(ny, ranks))
          << "ny " << ny << " ranks " << ranks;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 601 * 16 + 3 * 16);
}

TEST(CgBounds, MatrixFreeGridOutgrowsTheCsrBound) {
  // 2^17 x 2^16 on one rank: 2^33 points, past any 32-bit CSR index. The
  // matrix-free solver has no such layout, so timing-only runs go ahead,
  // while a sparse CG job of that shape is refused with the CSR reason.
  CgConfig cfg;
  cfg.nx = std::size_t{1} << 17;
  cfg.ny = std::size_t{1} << 16;
  cfg.max_iterations = 3;
  cfg.functional = false;
  const MachineSpec spec = MachineSpec::hgx_a100(1);
  for (const CgResult& r : {solvers::run_cg_cpufree(spec, cfg),
                            solvers::run_cg_baseline(spec, cfg)}) {
    EXPECT_EQ(r.iterations_run, 3);
    EXPECT_GT(r.metrics.total, 0);
  }
  serve::JobSpec job;
  job.devices = 1;
  job.iterations = 3;
  job.nx = cfg.nx;
  job.ny = cfg.ny;
  job.kind = serve::JobKind::kCg;
  EXPECT_EQ(serve::validate(job), "");
  job.kind = serve::JobKind::kSparseCg;
  EXPECT_EQ(serve::validate(job),
            "sparse CG: rank 0's slice of 65536 rows x nx 131072 overflows "
            "32-bit CSR indices (layout or nonzeros above 4294967295)");
}

}  // namespace
