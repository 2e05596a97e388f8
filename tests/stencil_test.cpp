// Tests for the stencil library: slab decomposition, functional correctness
// of every variant against the serial reference (the core integration test of
// the whole stack), no-compute mode, timing-only mode, and the performance
// ordering the paper reports. A digest over generated cases pins every
// knob a composition reads, byte for byte.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <vector>

#include "cpufree/metrics.hpp"
#include "cpufree/partition.hpp"
#include "stencil/config.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/slab.hpp"
#include "vshmem/world.hpp"

namespace {

using stencil::Jacobi2D;
using stencil::Jacobi3D;
using stencil::RunOutput;
using stencil::SlabStencil;
using stencil::StencilConfig;
using stencil::Variant;
using vgpu::MachineSpec;

MachineSpec hgx(int n) { return MachineSpec::hgx_a100(n); }

StencilConfig small_cfg(int iters) {
  StencilConfig c;
  c.iterations = iters;
  c.persistent_blocks = 12;  // small domains in tests need few blocks
  return c;
}

TEST(Jacobi2D, InitialSlabGivesTheSameDoublesAsInitial) {
  // The table-driven fill must reproduce initial() bit for bit, across
  // slab indices past one period of the modulus and rows wider than it.
  Jacobi2D prob;
  for (std::size_t nx : {std::size_t{1}, std::size_t{17}, std::size_t{97},
                         std::size_t{250}}) {
    prob.nx = nx;
    std::vector<double> row(nx);
    for (std::size_t sg : {std::size_t{0}, std::size_t{1}, std::size_t{96},
                           std::size_t{97}, std::size_t{4099}}) {
      prob.initial_slab(sg, row);
      for (std::size_t i = 0; i < nx; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i]),
                  std::bit_cast<std::uint64_t>(prob.initial(sg, i)))
            << "slab " << sg << " point " << i << " of " << nx;
      }
    }
  }
}

TEST(Slab, DecompositionCoversDomainWithoutOverlap) {
  vgpu::Machine m(hgx(3));
  vshmem::World w(m);
  Jacobi2D prob;
  prob.nx = 8;
  prob.ny = 17;  // 17 rows over 3 PEs: 6, 6, 5
  SlabStencil<Jacobi2D> S(w, prob, small_cfg(1));
  EXPECT_EQ(S.rows(0), 6u);
  EXPECT_EQ(S.rows(1), 6u);
  EXPECT_EQ(S.rows(2), 5u);
  EXPECT_EQ(S.offset(0), 0u);
  EXPECT_EQ(S.offset(1), 6u);
  EXPECT_EQ(S.offset(2), 12u);
}

TEST(Slab, TooFewSlabsPerDeviceThrows) {
  vgpu::Machine m(hgx(4));
  vshmem::World w(m);
  Jacobi2D prob;
  prob.nx = 8;
  prob.ny = 7;  // < 2 per device
  EXPECT_THROW(SlabStencil<Jacobi2D>(w, prob, small_cfg(1)),
               std::invalid_argument);
}

TEST(Slab, InitialGatherMatchesInitialCondition) {
  vgpu::Machine m(hgx(2));
  vshmem::World w(m);
  Jacobi2D prob;
  prob.nx = 8;
  prob.ny = 8;
  SlabStencil<Jacobi2D> S(w, prob, small_cfg(1));
  const auto g = S.gather(0);
  for (std::size_t s = 0; s < prob.ny; ++s) {
    for (std::size_t i = 0; i < prob.nx; ++i) {
      EXPECT_EQ(g[s * prob.nx + i], prob.initial(s, i));
    }
  }
}

TEST(Slab, ReferenceMatchesHandComputedUpdate) {
  Jacobi2D prob;
  prob.nx = 4;
  prob.ny = 4;
  vgpu::Machine m(hgx(1));
  vshmem::World w(m);
  SlabStencil<Jacobi2D> S(w, prob, small_cfg(1));
  const auto r = S.reference(1);
  // Interior point (1,1): average of initial neighbours.
  const double expect = 0.25 * (prob.initial(0, 1) + prob.initial(2, 1) +
                                prob.initial(1, 0) + prob.initial(1, 2));
  EXPECT_DOUBLE_EQ(r[1 * 4 + 1], expect);
  // Dirichlet corner unchanged.
  EXPECT_EQ(r[0], prob.initial(0, 0));
}

// ---- Functional correctness of every variant (the core integration test) --

class Variant2DSweep
    : public ::testing::TestWithParam<std::tuple<Variant, int, int>> {};

TEST_P(Variant2DSweep, MatchesSerialReferenceBitwise) {
  const auto [variant, devices, iters] = GetParam();
  Jacobi2D prob;
  prob.nx = 24;
  prob.ny = 24;
  const RunOutput out =
      stencil::run_jacobi2d(variant, hgx(devices), prob, small_cfg(iters));
  EXPECT_TRUE(out.verified) << stencil::variant_name(variant)
                            << " max_abs_err=" << out.max_abs_err;
  EXPECT_GT(out.result.metrics.total, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, Variant2DSweep,
    ::testing::Combine(
        ::testing::Values(Variant::kBaselineCopy, Variant::kBaselineOverlap,
                          Variant::kBaselineP2P, Variant::kBaselineNvshmem,
                          Variant::kCpuFree, Variant::kCpuFreePerks),
        ::testing::Values(1, 2, 4), ::testing::Values(1, 2, 7)));

class Variant3DSweep
    : public ::testing::TestWithParam<std::tuple<Variant, int>> {};

TEST_P(Variant3DSweep, MatchesSerialReferenceBitwise) {
  const auto [variant, devices] = GetParam();
  Jacobi3D prob;
  prob.nx = 10;
  prob.ny = 9;
  prob.nz = 16;
  const RunOutput out =
      stencil::run_jacobi3d(variant, hgx(devices), prob, small_cfg(5));
  EXPECT_TRUE(out.verified) << stencil::variant_name(variant)
                            << " max_abs_err=" << out.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, Variant3DSweep,
    ::testing::Combine(
        ::testing::Values(Variant::kBaselineCopy, Variant::kBaselineOverlap,
                          Variant::kBaselineP2P, Variant::kBaselineNvshmem,
                          Variant::kCpuFree, Variant::kCpuFreePerks),
        ::testing::Values(1, 3, 4)));

// The §4 alternative two-co-resident-kernels design must agree bitwise with
// the reference and perform comparably to the single-kernel design (the
// paper: "no significant performance improvement or degradation").
class TwoKernelSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoKernelSweep, MatchesSerialReferenceBitwise) {
  const auto [devices, iters] = GetParam();
  Jacobi2D prob;
  prob.nx = 24;
  prob.ny = 24;
  const RunOutput out = stencil::run_jacobi2d(Variant::kCpuFreeTwoKernels,
                                              hgx(devices), prob,
                                              small_cfg(iters));
  EXPECT_TRUE(out.verified) << " max_abs_err=" << out.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(Grids, TwoKernelSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2, 7)));

TEST(TwoKernel, PerformanceComparableToSingleKernel) {
  Jacobi2D prob;
  prob.nx = 1024;
  prob.ny = 1024;
  StencilConfig cfg;
  cfg.iterations = 30;
  cfg.functional = false;
  cfg.persistent_blocks = 108;
  const auto one = stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg)
                       .result.metrics.total;
  const auto two =
      stencil::run_jacobi2d(Variant::kCpuFreeTwoKernels, hgx(4), prob, cfg)
          .result.metrics.total;
  // Within 15% of each other, in either direction.
  const double ratio = static_cast<double>(two) / static_cast<double>(one);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(TwoKernel, OversizedRequestDegradesToTheCooperativeCap) {
  // An oversized block request on a homogeneous machine is clamped by
  // exec::resolve_persistent_blocks to the largest launchable grid (216 on
  // the A100 model with 1024-thread blocks) instead of failing at launch.
  Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  StencilConfig cfg = small_cfg(2);
  cfg.persistent_blocks = 400;  // exceeds the 216-block co-residency limit
  const RunOutput out =
      stencil::run_jacobi2d(Variant::kCpuFreeTwoKernels, hgx(2), prob, cfg);
  EXPECT_TRUE(out.verified);
}

TEST(TwoKernel, CombinedCoResidencyEnforced) {
  // The clamp resolves against the machine-level device model; a slower
  // device override with half the SMs has a lower cap than the resolved
  // grid, and BOTH kernels must be co-resident on it simultaneously — that
  // per-device check must still fail loudly.
  Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  StencilConfig cfg = small_cfg(2);
  cfg.persistent_blocks = 216;  // the homogeneous cap; fine on device 1
  MachineSpec spec = hgx(2);
  vgpu::DeviceSpec half = spec.device;
  half.sm_count = spec.device.sm_count / 2;  // cap drops to 108 on device 0
  spec.device_overrides.push_back(half);
  EXPECT_THROW(static_cast<void>(stencil::run_jacobi2d(
                   Variant::kCpuFreeTwoKernels, spec, prob, cfg)),
               vgpu::CooperativeLaunchError);
}

TEST(TwoKernel, KernelsThatFitAloneMustFitTogether) {
  // 112 blocks on the half-SM device 0 split into a comm kernel of 8 and an
  // inner kernel of 104: each fits the cap alone, so only the launcher's
  // check of both kernels together can reject the pair.
  Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  StencilConfig cfg = small_cfg(2);
  cfg.persistent_blocks = 112;
  MachineSpec spec = hgx(2);
  vgpu::DeviceSpec half = spec.device;
  half.sm_count = spec.device.sm_count / 2;
  spec.device_overrides.push_back(half);
  const int cap = half.max_cooperative_blocks(cfg.threads_per_block);
  // 32 rows per device: two boundary slabs and 30 inner slabs of 64 points.
  const cpufree::TbPartition part =
      cpufree::specialize_blocks(cfg.persistent_blocks, 64.0, 30.0 * 64.0);
  ASSERT_LE(part.num_boundaries * part.boundary_blocks, cap);
  ASSERT_LE(part.inner_blocks, cap);
  ASSERT_GT(part.total(), cap);
  EXPECT_THROW(static_cast<void>(stencil::run_jacobi2d(
                   Variant::kCpuFreeTwoKernels, spec, prob, cfg)),
               vgpu::CooperativeLaunchError);
}

// Uneven row split exercises the max-rows symmetric allocation path.
TEST(Variant2D, UnevenSplitStillCorrect) {
  Jacobi2D prob;
  prob.nx = 16;
  prob.ny = 23;  // 23 rows over 4 devices: 6,6,6,5
  for (Variant v : {Variant::kBaselineCopy, Variant::kCpuFree}) {
    const RunOutput out = stencil::run_jacobi2d(v, hgx(4), prob, small_cfg(4));
    EXPECT_TRUE(out.verified) << stencil::variant_name(v);
  }
}

// ---- Modes -----------------------------------------------------------------

TEST(Modes, NoComputeRunsCommOnly) {
  Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  StencilConfig cfg = small_cfg(10);
  cfg.compute_enabled = false;
  const RunOutput out =
      stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg);
  // There is no compute interval at all in the trace.
  EXPECT_GT(out.result.metrics.comm, 0);
  EXPECT_EQ(out.result.metrics.comm_hidden, 0);
}

TEST(Modes, TimingOnlyMatchesFunctionalTiming) {
  Jacobi2D prob;
  prob.nx = 32;
  prob.ny = 32;
  StencilConfig f_cfg = small_cfg(6);
  StencilConfig t_cfg = f_cfg;
  t_cfg.functional = false;
  for (Variant v : stencil::kAllVariants) {
    const RunOutput f = stencil::run_jacobi2d(v, hgx(2), prob, f_cfg);
    const RunOutput t = stencil::run_jacobi2d(v, hgx(2), prob, t_cfg);
    EXPECT_EQ(f.result.metrics.total, t.result.metrics.total)
        << stencil::variant_name(v);
  }
}

TEST(Modes, TraceDisabledStillTimes) {
  Jacobi2D prob;
  prob.nx = 32;
  prob.ny = 32;
  StencilConfig cfg = small_cfg(3);
  cfg.trace = false;
  const RunOutput out =
      stencil::run_jacobi2d(Variant::kBaselineCopy, hgx(2), prob, cfg);
  EXPECT_GT(out.result.metrics.total, 0);
  EXPECT_EQ(out.result.metrics.comm, 0);  // no intervals recorded
}

// ---- Performance shape (the paper's qualitative claims) --------------------

TEST(Shape, CpuFreeBeatsAllBaselinesOnSmallDomains) {
  // Small domain (per-GPU work tiny): host latencies dominate -> CPU-Free
  // wins big (Fig. 6.1 left).
  Jacobi2D prob;
  prob.nx = 256;
  prob.ny = 256;
  StencilConfig cfg;
  cfg.iterations = 50;
  cfg.functional = false;
  cfg.persistent_blocks = 108;
  const auto free_t =
      stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg)
          .result.metrics.total;
  for (Variant v : {Variant::kBaselineCopy, Variant::kBaselineOverlap,
                    Variant::kBaselineP2P, Variant::kBaselineNvshmem}) {
    const auto base_t =
        stencil::run_jacobi2d(v, hgx(4), prob, cfg).result.metrics.total;
    EXPECT_LT(free_t, base_t) << stencil::variant_name(v);
  }
}

TEST(Shape, NvshmemIsBestBaselineOnSmallDomains) {
  Jacobi2D prob;
  prob.nx = 256;
  prob.ny = 256;
  StencilConfig cfg;
  cfg.iterations = 50;
  cfg.functional = false;
  cfg.persistent_blocks = 108;
  const auto t_nvshmem =
      stencil::run_jacobi2d(Variant::kBaselineNvshmem, hgx(4), prob, cfg)
          .result.metrics.total;
  for (Variant v : {Variant::kBaselineCopy, Variant::kBaselineOverlap}) {
    const auto t =
        stencil::run_jacobi2d(v, hgx(4), prob, cfg).result.metrics.total;
    EXPECT_LT(t_nvshmem, t) << stencil::variant_name(v);
  }
}

TEST(Shape, PerksRecoversLargeDomainLoss) {
  // Large domain: the plain persistent kernel pays the software-tiling
  // penalty and loses to the discrete NVSHMEM baseline; PERKS wins (Fig 6.1
  // right).
  // The paper's largest domain (8192^2): the crossover only appears there.
  Jacobi2D prob;
  prob.nx = 8192;
  prob.ny = 8192;
  StencilConfig cfg;
  cfg.iterations = 10;
  cfg.functional = false;
  cfg.persistent_blocks = 108;
  const auto t_free =
      stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg)
          .result.metrics.total;
  const auto t_base =
      stencil::run_jacobi2d(Variant::kBaselineNvshmem, hgx(4), prob, cfg)
          .result.metrics.total;
  const auto t_perks =
      stencil::run_jacobi2d(Variant::kCpuFreePerks, hgx(4), prob, cfg)
          .result.metrics.total;
  EXPECT_GT(t_free, t_base);   // plain CPU-Free loses at large domains
  EXPECT_LT(t_perks, t_base);  // PERKS variant wins
}

TEST(Shape, CpuFreeOverlapRatioExceedsBaseline) {
  // Fig. 2.2b: baselines overlap a small fraction of communication;
  // CPU-Free hides most of it.
  Jacobi2D prob;
  prob.nx = 1024;
  prob.ny = 1024;
  StencilConfig cfg;
  cfg.iterations = 20;
  cfg.functional = false;
  cfg.persistent_blocks = 108;
  const auto base =
      stencil::run_jacobi2d(Variant::kBaselineCopy, hgx(4), prob, cfg)
          .result.metrics;
  const auto free_m =
      stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg)
          .result.metrics;
  EXPECT_GT(free_m.overlap_ratio, base.overlap_ratio);
}

TEST(Shape, StrongScalingCpuFreeStaysFlat) {
  // Fig. 6.2 right: with a fixed domain, baselines degrade with GPU count
  // while CPU-Free stays largely flat.
  Jacobi3D prob;
  prob.nx = 256;
  prob.ny = 256;
  prob.nz = 64;
  StencilConfig cfg;
  cfg.iterations = 10;
  cfg.functional = false;
  cfg.persistent_blocks = 108;
  const auto free2 =
      stencil::run_jacobi3d(Variant::kCpuFree, hgx(2), prob, cfg)
          .result.metrics.per_iteration;
  const auto free8 =
      stencil::run_jacobi3d(Variant::kCpuFree, hgx(8), prob, cfg)
          .result.metrics.per_iteration;
  const auto copy2 =
      stencil::run_jacobi3d(Variant::kBaselineCopy, hgx(2), prob, cfg)
          .result.metrics.per_iteration;
  const auto copy8 =
      stencil::run_jacobi3d(Variant::kBaselineCopy, hgx(8), prob, cfg)
          .result.metrics.per_iteration;
  // CPU-Free gains from strong scaling; the baseline's per-iteration time is
  // dominated by fixed host overheads and shrinks far less (or grows).
  const double free_gain = static_cast<double>(free2) / static_cast<double>(free8);
  const double copy_gain = static_cast<double>(copy2) / static_cast<double>(copy8);
  EXPECT_GT(free_gain, copy_gain);
}

// Heterogeneous devices: give every GPU a different DRAM bandwidth (up to
// 3x skew) so compute phases finish at wildly different times. The
// iteration-flag protocol must still produce bitwise-correct results — no
// rank may ever read a stale or too-new halo, no matter the skew.
class SkewSweep : public ::testing::TestWithParam<std::tuple<Variant, int>> {};

TEST_P(SkewSweep, ProtocolCorrectUnderTimingSkew) {
  const auto [variant, devices] = GetParam();
  MachineSpec spec = hgx(devices);
  for (int d = 0; d < devices; ++d) {
    vgpu::DeviceSpec ds = spec.device;
    ds.dram_bw_gbps = spec.device.dram_bw_gbps / (1.0 + d);  // 1x..Nx slower
    ds.grid_sync = spec.device.grid_sync * (d + 1);
    spec.device_overrides.push_back(ds);
  }
  Jacobi2D prob;
  prob.nx = 24;
  prob.ny = 24;
  const RunOutput out =
      stencil::run_jacobi2d(variant, spec, prob, small_cfg(6));
  EXPECT_TRUE(out.verified) << stencil::variant_name(variant)
                            << " max_abs_err=" << out.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(
    Skew, SkewSweep,
    ::testing::Combine(::testing::Values(Variant::kBaselineNvshmem,
                                         Variant::kCpuFree,
                                         Variant::kCpuFreePerks,
                                         Variant::kCpuFreeTwoKernels),
                       ::testing::Values(2, 4, 8)));

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

TEST(StencilDigest, GeneratedKnobCasesArePinned) {
  // Every variant on a small Jacobi2D and Jacobi3D, over 2 and 4 devices,
  // both block sizes and two persistent grids; then CPU-Free under each
  // ablation knob (block split, put scope, no-compute mode), the two-kernel
  // design under a block split it must ignore, and the NVSHMEM baseline
  // with thread-scoped puts. A discrete launch's block size never
  // reaches simulated time, so the persistent variants also run a domain
  // larger than their resident threads, where the software-tiling model
  // reads it. Each case adds its metrics JSON, final parity and bitwise
  // verdict.
  constexpr Variant kSeven[] = {
      Variant::kBaselineCopy,    Variant::kBaselineOverlap,
      Variant::kBaselineP2P,     Variant::kBaselineNvshmem,
      Variant::kCpuFree,         Variant::kCpuFreePerks,
      Variant::kCpuFreeTwoKernels};
  Jacobi2D p2;
  p2.nx = 32;
  p2.ny = 32;
  Jacobi3D p3;
  p3.nx = 8;
  p3.ny = 8;
  p3.nz = 8;
  Jacobi2D tiled;
  tiled.nx = 128;
  tiled.ny = 128;
  std::uint64_t h = 1469598103934665603ull;
  int cases = 0;
  int verified = 0;
  const auto add = [&](const RunOutput& out) {
    fnv_text(h, cpufree::to_json(out.result.metrics));
    fnv_word(h, static_cast<std::uint64_t>(out.result.final_parity));
    fnv_word(h, out.verified ? 1 : 0);
    ++cases;
    if (out.verified) ++verified;
  };
  for (bool three_d : {false, true}) {
    for (int devices : {2, 4}) {
      const auto run = [&](Variant v, const StencilConfig& cfg) {
        add(three_d ? stencil::run_jacobi3d(v, hgx(devices), p3, cfg)
                    : stencil::run_jacobi2d(v, hgx(devices), p2, cfg));
      };
      for (Variant v : kSeven) {
        for (int tpb : {256, 1024}) {
          for (int pb : {4, 12}) {
            StencilConfig cfg = small_cfg(5);
            cfg.threads_per_block = tpb;
            cfg.persistent_blocks = pb;
            run(v, cfg);
          }
        }
      }
      StencilConfig single = small_cfg(5);
      single.tb_policy = stencil::TbPolicy::kSingleBlock;
      run(Variant::kCpuFree, single);
      run(Variant::kCpuFreeTwoKernels, single);  // ignores the ablation
      StencilConfig equal = small_cfg(5);
      equal.tb_policy = stencil::TbPolicy::kEqualSplit;
      run(Variant::kCpuFree, equal);
      StencilConfig thread = small_cfg(5);
      thread.comm_scope = vshmem::Scope::kThread;
      run(Variant::kCpuFree, thread);
      run(Variant::kBaselineNvshmem, thread);
      StencilConfig no_compute = small_cfg(5);
      no_compute.compute_enabled = false;
      run(Variant::kCpuFree, no_compute);
    }
  }
  for (Variant v : {Variant::kCpuFree, Variant::kCpuFreePerks,
                    Variant::kCpuFreeTwoKernels}) {
    for (int tpb : {256, 1024}) {
      StencilConfig cfg = small_cfg(3);
      cfg.threads_per_block = tpb;
      cfg.persistent_blocks = 4;
      add(stencil::run_jacobi2d(v, hgx(2), tiled, cfg));
    }
  }
  EXPECT_EQ(cases, 142);
  EXPECT_EQ(verified, 138);  // all but the four no-compute cases
  EXPECT_EQ(h, 0x6752a45f80ae902ull);
}

TEST(Determinism, RepeatedRunsIdentical) {
  Jacobi2D prob;
  prob.nx = 64;
  prob.ny = 64;
  StencilConfig cfg = small_cfg(5);
  const auto a =
      stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg).result;
  const auto b =
      stencil::run_jacobi2d(Variant::kCpuFree, hgx(4), prob, cfg).result;
  EXPECT_EQ(a.metrics.total, b.metrics.total);
  EXPECT_EQ(a.metrics.comm, b.metrics.comm);
}

}  // namespace
