// Pins the stored-interval output of sim::Trace: the Chrome-trace JSON and
// the text summary of five runs, which between them record every form an
// interval name takes.
//   - fig2_2_overhead's traced run (host-loop overlap streams, timing-only);
//   - jacobi2d_cpufree's traced run (persistent CPU-Free kernels);
//   - two 2D dacelite persistent runs (`p`, strided `iput` and signaled
//     puts);
//   - a host-loop histogram run (`launch:` and `memcpy_issue:` labels,
//     built from a prefix and the kernel or copy name);
//   - a faulted run whose watchdog fires (waits named with `(timeout)`).
// Each run's two texts are hashed (FNV-1a) against a digest captured before
// the trace learned to keep its unions online, so the timelines that
// `--trace` writes cannot drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "exec/policy.hpp"
#include "stencil/problems.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

using stencil::Jacobi2D;
using stencil::StencilConfig;
using stencil::Variant;
using vgpu::Machine;
using vgpu::MachineSpec;

/// The Chrome trace and the summary of a finished run on `m`.
std::string dump(Machine& m) {
  return m.trace().to_chrome_json() + m.trace().summary(m.engine().now());
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A 2D stencil variant on a machine of `spec`, traced as `--trace` runs it.
std::string stencil_dump(const MachineSpec& spec, std::size_t nx,
                         std::size_t ny, const StencilConfig& cfg, Variant v,
                         std::int64_t* watchdog_fires = nullptr) {
  Machine m(spec);
  m.trace().keep_intervals();
  vshmem::World world(m);
  Jacobi2D p;
  p.nx = nx;
  p.ny = ny;
  stencil::SlabStencil<Jacobi2D> s(world, p, cfg);
  const stencil::StencilResult r = stencil::run_variant(s, v);
  if (watchdog_fires != nullptr) *watchdog_fires = r.metrics.watchdog_fires;
  return dump(m);
}

TEST(TraceOutput, ChromeJsonAndSummaryArePinned) {
  // fig2_2_overhead --trace: weak_scaled(256, 4) is 512 x 512.
  StencilConfig timing;
  timing.iterations = 5;
  timing.functional = false;
  const std::string overhead = stencil_dump(
      MachineSpec::hgx_a100(4), 512, 512, timing, Variant::kBaselineOverlap);

  // jacobi2d_cpufree --trace with its default problem.
  StencilConfig five;
  five.iterations = 5;
  const std::string cpufree = stencil_dump(MachineSpec::hgx_a100(4), 512, 512,
                                           five, Variant::kCpuFree);

  // A 24 x 24 grid on 2 x 2 ranks sends its columns with iput and its rows
  // with putmem_signal_nbi; a 24 x 2 grid's one-element columns go with p.
  std::string dace;
  for (const std::size_t gy : {std::size_t{24}, std::size_t{2}}) {
    auto prog = dacelite::make_jacobi2d(24, gy, 4, 3);
    dacelite::to_cpu_free(prog.sdfg);
    Machine m(MachineSpec::hgx_a100(4));
    m.trace().keep_intervals();
    vshmem::World w(m);
    dacelite::ProgramData data(w, prog.sdfg, true);
    (void)dacelite::execute_persistent(m, w, data, prog.sdfg,
                                       dacelite::ExecOptions{});
    dace += dump(m);
  }

  std::string hist;
  {
    workloads::HistogramConfig cfg;
    cfg.bins = 97;
    cfg.keys_per_round = 512;
    cfg.rounds = 3;
    Machine m(MachineSpec::hgx_a100(2));
    m.trace().keep_intervals();
    (void)workloads::run_histogram(
        m, cfg,
        {exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kOverlapStreams,
         exec::SyncPolicy::kHostBarrier, "hist"});
    hist = dump(m);
  }

  // fig_fault_resilience's stencil/cpu_free cell at rate 0.05 with retry.
  MachineSpec faulty = MachineSpec::hgx_a100(4);
  faulty.faults.rate = 0.05;
  faulty.faults.resilience = fault::Resilience::kRetry;
  StencilConfig thirty;
  thirty.iterations = 30;
  thirty.persistent_blocks = 12;
  std::int64_t fires = 0;
  const std::string faulted = stencil_dump(faulty, 256, 256, thirty,
                                           Variant::kCpuFree, &fires);

  // Each run records the name form it stands for.
  EXPECT_NE(overhead.find("\"launch:"), std::string::npos);
  EXPECT_NE(cpufree.find("gpu  0: compute"), std::string::npos);
  for (const char* name : {"\"p\"", "\"iput\"", "\"putmem_signal_nbi\""}) {
    EXPECT_NE(dace.find(name), std::string::npos) << name;
  }
  EXPECT_NE(hist.find("\"memcpy_issue:"), std::string::npos);
  EXPECT_GT(fires, 0);
  EXPECT_NE(faulted.find("(timeout)"), std::string::npos);

  EXPECT_EQ(fnv1a(overhead), 0x60c753b965963c8eull)
      << std::hex << fnv1a(overhead);
  EXPECT_EQ(fnv1a(cpufree), 0xa8431d610831ffbcull)
      << std::hex << fnv1a(cpufree);
  EXPECT_EQ(fnv1a(dace), 0xb6197e8f485a9a90ull) << std::hex << fnv1a(dace);
  EXPECT_EQ(fnv1a(hist), 0xe83656d11f1d7e5full) << std::hex << fnv1a(hist);
  EXPECT_EQ(fnv1a(faulted), 0xe88c1a7487d0b1b7ull)
      << std::hex << fnv1a(faulted);
}

}  // namespace
