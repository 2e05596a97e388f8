// Unit tests for the CPU-Free core library: thread-block specialization
// formula, PERKS cache/tiling model, halo plan topology, the iteration-flag
// protocol, the persistent multi-GPU launch (through exec::run_program), and
// run metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cpufree/halo.hpp"
#include "cpufree/metrics.hpp"
#include "cpufree/partition.hpp"
#include "cpufree/perks.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "sim/rng.hpp"
#include "test_machines.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace {

using cpufree::HaloPlan1D;
using cpufree::IterationProtocol;
using cpufree::PerksModel;
using cpufree::specialize_blocks;
using cpufree::TbPartition;
using sim::Nanos;
using sim::Task;
using vgpu::BlockGroup;
using vgpu::KernelCtx;
using vgpu::Machine;
using vgpu::MachineSpec;

MachineSpec spec(int devices) {
  return test_machines::device_protocol(devices);
}

TEST(TbSpecialization, MatchesPaperFormula) {
  // TB_total=108, boundary=256 points, inner=63,488 points:
  // boundary = 108*256/(63488+512) = 0.43 -> clamped to 1.
  TbPartition p = specialize_blocks(108, 256, 63488);
  EXPECT_EQ(p.boundary_blocks, 1);
  EXPECT_EQ(p.inner_blocks, 106);
  EXPECT_EQ(p.total(), 108);

  // Balanced: boundary as large as a third of the domain.
  p = specialize_blocks(108, 1000, 1000);
  // 108*1000/3000 = 36 per boundary, inner 36.
  EXPECT_EQ(p.boundary_blocks, 36);
  EXPECT_EQ(p.inner_blocks, 36);
}

TEST(TbSpecialization, BoundaryNeverStarvesInner) {
  // Huge boundary share: formula would give boundary > (total-1)/2; clamp.
  TbPartition p = specialize_blocks(9, 1e9, 1.0);
  EXPECT_EQ(p.boundary_blocks, 4);
  EXPECT_EQ(p.inner_blocks, 1);
  EXPECT_EQ(p.total(), 9);
}

TEST(TbSpecialization, AtLeastOneBlockPerBoundary) {
  TbPartition p = specialize_blocks(108, 1.0, 1e9);
  EXPECT_EQ(p.boundary_blocks, 1);
}

TEST(TbSpecialization, TooFewBlocksThrows) {
  EXPECT_THROW(static_cast<void>(specialize_blocks(2, 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(specialize_blocks(108, -1, 1)),
               std::invalid_argument);
}

class TbSweep : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(TbSweep, PartitionInvariants) {
  const auto [total, boundary, inner] = GetParam();
  const TbPartition p = specialize_blocks(total, boundary, inner);
  EXPECT_EQ(p.total(), total);
  EXPECT_GE(p.boundary_blocks, 1);
  EXPECT_GE(p.inner_blocks, 1);
  // Proportionality: boundary share never exceeds formula value + 1 block.
  const double ideal = total * boundary / (inner + 2 * boundary);
  EXPECT_LE(p.boundary_blocks, std::max(1.0, ideal) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TbSweep,
    ::testing::Values(std::tuple{108, 256.0, 65536.0},
                      std::tuple{108, 8192.0, 67108864.0},
                      std::tuple{216, 1024.0, 1024.0},
                      std::tuple{4, 100.0, 100.0},
                      std::tuple{108, 0.0, 1000.0}));

TEST(Perks, CacheBytesAndFraction) {
  PerksModel perks;
  vgpu::DeviceSpec dev = vgpu::DeviceSpec::a100();
  // (164 KiB + 256 KiB) * 108 SMs * 0.7 ~ 31.1 MB.
  const double cache = perks.cache_bytes(dev);
  EXPECT_NEAR(cache, 0.7 * (164.0 * 1024 + 256.0 * 1024) * 108, 1.0);
  EXPECT_DOUBLE_EQ(perks.cached_fraction(cache / 2, dev), 1.0);
  EXPECT_NEAR(perks.cached_fraction(cache * 4, dev), 0.25, 1e-12);
}

TEST(Perks, TrafficFactorShrinksWithCaching) {
  PerksModel perks;
  vgpu::DeviceSpec dev = vgpu::DeviceSpec::a100();
  const double small_domain = perks.cache_bytes(dev);       // fully cached
  const double big_domain = perks.cache_bytes(dev) * 100;   // barely cached
  EXPECT_LT(perks.traffic_factor(small_domain, dev),
            perks.traffic_factor(big_domain, dev));
  EXPECT_NEAR(perks.traffic_factor(small_domain, dev), 0.1, 1e-12);
  EXPECT_GT(perks.traffic_factor(big_domain, dev), 0.95);
}

TEST(Perks, SoftwareTilingEfficiencyDegradesThenSaturates) {
  const int resident = 108 * 1024;
  EXPECT_DOUBLE_EQ(cpufree::software_tiling_efficiency(1000, resident), 1.0);
  const double small = cpufree::software_tiling_efficiency(4.0 * resident, resident);
  const double large =
      cpufree::software_tiling_efficiency(1024.0 * resident, resident);
  EXPECT_LT(small, 1.0);
  EXPECT_LT(large, small);
  EXPECT_GE(large, 0.72);
  // Saturation: even absurd domains never fall below the floor.
  EXPECT_GE(cpufree::software_tiling_efficiency(1e15, resident), 0.72);
}

TEST(HaloPlan, TopologyEndsAndInterior) {
  HaloPlan1D first{0, 4};
  EXPECT_FALSE(first.top().has_value());
  EXPECT_EQ(first.bottom(), 1);
  EXPECT_EQ(first.neighbor_count(), 1);

  HaloPlan1D mid{2, 4};
  EXPECT_EQ(mid.top(), 1);
  EXPECT_EQ(mid.bottom(), 3);
  EXPECT_EQ(mid.neighbor_count(), 2);

  HaloPlan1D last{3, 4};
  EXPECT_EQ(last.top(), 2);
  EXPECT_FALSE(last.bottom().has_value());

  HaloPlan1D solo{0, 1};
  EXPECT_EQ(solo.neighbor_count(), 0);
}

TEST(HaloPlan, FlagRouting) {
  // Sending UP lands in the neighbour's BOTTOM slot and vice versa.
  EXPECT_EQ(HaloPlan1D::ready_flag_at_neighbor(/*to_top=*/true),
            cpufree::kBottomHaloReady);
  EXPECT_EQ(HaloPlan1D::ready_flag_at_neighbor(false), cpufree::kTopHaloReady);
  EXPECT_EQ(HaloPlan1D::my_ready_flag(/*from_top=*/true), cpufree::kTopHaloReady);
  EXPECT_EQ(HaloPlan1D::my_ready_flag(false), cpufree::kBottomHaloReady);
}

TEST(IterationProtocol, PairwiseExchangeDeliversEveryIteration) {
  Machine m(spec(2));
  vshmem::World w(m);
  auto sig = w.alloc_signals(4);
  vshmem::Sym<double> halo = w.alloc<double>(8, "halo");
  IterationProtocol proto(w, *sig);
  constexpr int kIters = 5;
  std::vector<double> received;

  auto pe0 = [&](KernelCtx& k) -> Task {
    for (int t = 1; t <= kIters; ++t) {
      halo.on(0)[0] = 100.0 * t;  // produce boundary value of iteration t
      co_await proto.put_and_signal(k, halo, 0, 4, 1, cpufree::kTopHaloReady,
                                    t, 1);
      // Flow control: wait for consumption ack before overwriting.
      co_await proto.wait_iteration(k, cpufree::kBottomAck, t);
    }
  };
  auto pe1 = [&](KernelCtx& k) -> Task {
    for (int t = 1; t <= kIters; ++t) {
      co_await proto.wait_iteration(k, cpufree::kTopHaloReady, t);
      received.push_back(halo.on(1)[4]);
      co_await proto.signal_only(k, cpufree::kBottomAck, t, 0);
    }
  };
  std::vector<vgpu::BlockGroup> g0, g1;
  g0.push_back(BlockGroup{"comm", 1, pe0});
  g1.push_back(BlockGroup{"comm", 1, pe1});
  m.engine().spawn(vgpu::run_kernel(m, m.device(0), 0, vgpu::LaunchConfig{},
                                    std::move(g0)));
  m.engine().spawn(vgpu::run_kernel(m, m.device(1), 0, vgpu::LaunchConfig{},
                                    std::move(g1)));
  m.engine().run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kIters));
  for (int t = 1; t <= kIters; ++t) {
    EXPECT_EQ(received[static_cast<std::size_t>(t - 1)], 100.0 * t);
  }
}

/// The single-kernel CPU-Free plan the launch tests run under.
constexpr exec::Plan kPersistentPlan{
    exec::LaunchPolicy::kPersistent, exec::CommPolicy::kSignaledPut,
    exec::SyncPolicy::kIterationFlags, "persistent"};

TEST(PersistentLaunch, RunsOneKernelPerDeviceWithSingleLaunchCost) {
  MachineSpec s = spec(3);
  s.host.kernel_launch = 20;
  s.host.launch_to_start = 30;
  s.host.stream_sync = 1;
  Machine m(s);
  vshmem::World w(m);
  std::vector<int> iterations_done(3, 0);
  exec::Program prog{.world = &w, .plan = kPersistentPlan, .iterations = 10};
  prog.groups = [&iterations_done](int d, const exec::IterationJoin& join) {
    auto body = [&iterations_done, d,
                 comm_end = join.comm_end](KernelCtx& k) -> Task {
      for (int t = 1; t <= 10; ++t) {
        co_await k.busy(100, sim::Cat::kCompute, "iter");
        CO_AWAIT(comm_end(k, /*lead=*/true, t));
        ++iterations_done[static_cast<std::size_t>(d)];
      }
    };
    auto body2 = [inner_end = join.inner_end](KernelCtx& k) -> Task {
      for (int t = 1; t <= 10; ++t) {
        CO_AWAIT(inner_end(k, t));
      }
    };
    exec::ProgramGroups pg;
    pg.comm.push_back(BlockGroup{"main", 2, body});
    pg.inner.push_back(BlockGroup{"aux", 1, body2});
    return pg;
  };
  exec::run_program(prog);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(iterations_done[static_cast<std::size_t>(d)], 10);
  }
  // Exactly one kernel launch and one final stream_sync per device: the CPU
  // issues nothing per iteration.
  int launches = 0;
  int syncs = 0;
  for (const auto& iv : m.trace().intervals()) {
    if (iv.cat != sim::Cat::kHostApi) continue;
    if (iv.name.starts_with("launch:")) ++launches;
    if (iv.name == "stream_sync") ++syncs;
  }
  EXPECT_EQ(launches, 3);
  EXPECT_EQ(syncs, 3);
}

TEST(PersistentLaunch, EnforcesCoResidency) {
  Machine m(spec(1));
  vshmem::World w(m);
  const int limit = m.device(0).spec().max_cooperative_blocks(1024);
  exec::Program prog{.world = &w, .plan = kPersistentPlan};
  prog.groups = [limit](int, const exec::IterationJoin&) {
    exec::ProgramGroups pg;
    pg.comm.push_back(BlockGroup{"too_big", limit + 1,
                                 [](KernelCtx&) -> Task { co_return; }});
    return pg;
  };
  EXPECT_THROW(exec::run_program(prog), vgpu::CooperativeLaunchError);
}

TEST(Metrics, AnalyzeRunDerivesRatios) {
  sim::Trace tr;
  tr.record(sim::Cat::kComm, 0, 0, 0, 100);
  tr.record(sim::Cat::kCompute, 0, 1, 50, 300);
  tr.record(sim::Cat::kSync, 0, 0, 300, 320);
  tr.record(sim::Cat::kHostApi, -1, 0, 0, 40);
  const cpufree::RunMetrics m = cpufree::analyze_run(tr, 400, 4);
  EXPECT_EQ(m.total, 400);
  EXPECT_EQ(m.per_iteration, 100);
  EXPECT_EQ(m.comm, 100);
  EXPECT_EQ(m.sync, 20);
  EXPECT_EQ(m.host_api, 40);
  EXPECT_EQ(m.comm_hidden, 50);
  EXPECT_DOUBLE_EQ(m.overlap_ratio, 0.5);
  EXPECT_DOUBLE_EQ(m.comm_fraction, 0.25);
}

TEST(Metrics, ZeroIterationGuard) {
  sim::Trace tr;
  const cpufree::RunMetrics m = cpufree::analyze_run(tr, 500, 0);
  EXPECT_EQ(m.per_iteration, 500);
  EXPECT_DOUBLE_EQ(m.comm_fraction, 0.0);
}

TEST(Metrics, ZeroIterationRunWithActivityStillDerivesFractions) {
  // A run that aborted before its first iteration: intervals exist but
  // iterations == 0. per_iteration falls back to total; fractions are still
  // well-defined.
  sim::Trace tr;
  tr.record(sim::Cat::kHostApi, -1, 0, 0, 200);
  tr.record(sim::Cat::kCompute, 0, 0, 200, 400);
  const cpufree::RunMetrics m = cpufree::analyze_run(tr, 400, 0);
  EXPECT_EQ(m.per_iteration, 400);
  EXPECT_EQ(m.compute, 200);
  EXPECT_EQ(m.host_api, 200);
  EXPECT_DOUBLE_EQ(m.noncompute_fraction, 0.5);
  // Host API [0,200) and compute [200,400) tile the run exactly: nothing is
  // hidden.
  EXPECT_DOUBLE_EQ(m.hidden_comm_ratio, 0.0);
}

TEST(Metrics, IdleGapsClampHiddenCommRatioToZero) {
  // compute + noncompute < total because of a large idle gap; the covered
  // estimate (compute + noncompute - total) goes negative and must clamp to
  // zero rather than produce a negative ratio.
  sim::Trace tr;
  tr.record(sim::Cat::kCompute, 0, 0, 0, 100);
  tr.record(sim::Cat::kComm, 0, 0, 500, 600);  // idle gap [100, 500)
  const cpufree::RunMetrics m = cpufree::analyze_run(tr, 1000, 10);
  EXPECT_EQ(m.compute, 100);
  EXPECT_EQ(m.comm, 100);
  EXPECT_EQ(m.comm_hidden, 0);
  EXPECT_DOUBLE_EQ(m.hidden_comm_ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.noncompute_fraction, 0.9);
}

TEST(Metrics, FullyOverlappedCommClampsHiddenRatioToOne) {
  // Compute spans the whole run and covers all non-compute activity: covered
  // = compute + noncompute - total would exceed noncompute without the upper
  // clamp (compute alone already tiles the run).
  sim::Trace tr;
  tr.record(sim::Cat::kCompute, 0, 0, 0, 1000);
  tr.record(sim::Cat::kComm, 0, 0, 100, 200);
  tr.record(sim::Cat::kSync, 0, 0, 300, 350);
  const cpufree::RunMetrics m = cpufree::analyze_run(tr, 1000, 10);
  EXPECT_EQ(m.comm_hidden, 100);
  EXPECT_DOUBLE_EQ(m.overlap_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.hidden_comm_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.noncompute_fraction, 0.0);
}

TEST(Metrics, JsonEmitsExactNanosAndRatios) {
  cpufree::RunMetrics m;
  m.total = 123456789;
  m.per_iteration = 1234567;
  m.comm = 42;
  m.overlap_ratio = 0.5;
  const std::string json = cpufree::to_json(m);
  EXPECT_NE(json.find("\"total_ns\":123456789"), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_iteration_ns\":1234567"), std::string::npos);
  EXPECT_NE(json.find("\"comm_ns\":42"), std::string::npos);
  EXPECT_NE(json.find("\"overlap_ratio\":0.5"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- Trace analysis over generated traces ------------------------------------

// A trace of up to 48 raw intervals (appended, not recorded, so zero-length
// spans reach the analysis) over every category and devices -1..2: fresh
// spans, exact duplicates of the previous span, spans nested inside it and
// spans touching its end. Seed 0 draws the empty trace.
sim::Trace generated_trace(std::uint64_t seed) {
  auto u = [seed](std::uint64_t i, std::uint64_t field) {
    return sim::stream_uniform(seed, 0x7ace, i, field);
  };
  auto pick = [&u](std::uint64_t i, std::uint64_t field, int n) {
    return static_cast<int>(u(i, field) * n);
  };
  const int n = seed == 0 ? 0 : 1 + pick(0, 0, 48);
  std::vector<sim::Interval> ivs;
  for (int i = 1; i <= n; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    sim::Interval iv;
    iv.cat = static_cast<sim::Cat>(pick(k, 1, 6));
    iv.device = pick(k, 2, 4) - 1;
    const double shape = u(k, 3);
    const sim::Interval* prev = ivs.empty() ? nullptr : &ivs.back();
    if (prev != nullptr && shape < 0.15) {
      iv.begin = prev->begin;
      iv.end = prev->end;
    } else if (prev != nullptr && shape < 0.3) {
      const Nanos quarter = (prev->end - prev->begin) / 4;
      iv.begin = prev->begin + quarter;
      iv.end = prev->end - quarter;
    } else if (prev != nullptr && shape < 0.45) {
      iv.begin = prev->end;
      iv.end = iv.begin + 1 + pick(k, 4, 300);
    } else {
      iv.begin = pick(k, 5, 2000);
      iv.end = iv.begin + (u(k, 6) < 0.15 ? 0 : 1 + pick(k, 4, 300));
    }
    ivs.push_back(iv);
  }
  sim::Trace tr;
  tr.append(std::move(ivs));
  return tr;
}

// analyze_run spelled out with one per-call Trace query per field.
cpufree::RunMetrics analyze_per_call(const sim::Trace& tr, Nanos total,
                                     std::int64_t iterations) {
  using sim::Cat;
  cpufree::RunMetrics m;
  m.total = total;
  m.per_iteration = iterations > 0 ? total / iterations : total;
  m.comm = tr.union_length(Cat::kComm);
  m.compute = tr.union_length(Cat::kCompute);
  m.sync = tr.union_length(Cat::kSync);
  m.host_api = tr.union_length(Cat::kHostApi);
  m.comm_hidden = tr.overlap_length(Cat::kComm, Cat::kCompute);
  m.overlap_ratio = tr.overlap_ratio(Cat::kComm, Cat::kCompute);
  m.comm_fraction =
      total > 0 ? static_cast<double>(m.comm) / static_cast<double>(total) : 0.0;
  m.noncompute_fraction =
      total > 0
          ? 1.0 - static_cast<double>(m.compute) / static_cast<double>(total)
          : 0.0;
  const Nanos noncompute =
      tr.union_length_any({Cat::kComm, Cat::kSync, Cat::kHostApi});
  if (noncompute > 0 && total > 0) {
    const Nanos covered =
        std::clamp<Nanos>(m.compute + noncompute - total, 0, noncompute);
    m.hidden_comm_ratio =
        static_cast<double>(covered) / static_cast<double>(noncompute);
  }
  return m;
}

// Every field of analyze_run equals the per-call queries on 400 generated
// traces and several run lengths each, and the whole set reproduces the
// digest captured before analyze_run bucketed the trace in one pass.
TEST(Metrics, AnalyzeRunMatchesPerCallQueriesOnGeneratedTraces) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const sim::Trace tr = generated_trace(seed);
    Nanos last = 0;
    for (const sim::Interval& iv : tr.intervals()) {
      last = std::max(last, iv.end);
    }
    for (const Nanos total : {Nanos{0}, last / 2, last, 2 * last + 7}) {
      const auto iterations = static_cast<std::int64_t>(seed % 5);
      const std::string got =
          cpufree::to_json(cpufree::analyze_run(tr, total, iterations));
      ASSERT_EQ(got, cpufree::to_json(analyze_per_call(tr, total, iterations)))
          << "seed " << seed << " total " << total;
      for (const char c : got) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
      }
    }
  }
  EXPECT_EQ(h, 0x951fb4c0d7484420ull) << std::hex << h;
}

}  // namespace
