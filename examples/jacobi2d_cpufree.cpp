// Full 2D Jacobi application on the CPU-Free model: runs the distributed
// stencil, verifies the result bit-for-bit against a serial solver, prints a
// performance report against a CPU-controlled baseline, and (optionally)
// dumps a Chrome-trace timeline of the persistent kernels.
//
//   $ ./jacobi2d_cpufree [nx ny iterations gpus] [--trace out.json]
//
// Every positional argument must be a positive decimal integer, --trace
// needs a path, and every device needs two rows; anything else exits 2. A
// verification failure or a trace that cannot be written exits 1.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "args.hpp"
#include "stencil/problems.hpp"
#include "sim/stats.hpp"
#include "stencil/runner.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "vshmem/world.hpp"

namespace {

int solve(const stencil::Jacobi2D& prob, const stencil::StencilConfig& cfg,
          int gpus, const std::string& trace_path) {
  std::printf("2D Jacobi %zux%zu, %d iterations, %d virtual A100s\n\n", prob.nx,
              prob.ny, cfg.iterations, gpus);

  // Functional run with verification for the CPU-Free model.
  const auto spec = vgpu::MachineSpec::hgx_a100(gpus);
  const auto cpu_free =
      stencil::run_jacobi2d(stencil::Variant::kCpuFree, spec, prob, cfg);
  std::printf("CPU-Free:        %10.3f ms   (verified: %s, max err %.2e)\n",
              cpu_free.result.metrics.total_ms(),
              cpu_free.verified ? "yes, bitwise" : "NO",
              cpu_free.max_abs_err);

  // Baseline for comparison (same numerics, CPU-controlled).
  const auto baseline =
      stencil::run_jacobi2d(stencil::Variant::kBaselineCopy, spec, prob, cfg);
  std::printf("Baseline (copy): %10.3f ms   (verified: %s)\n",
              baseline.result.metrics.total_ms(),
              baseline.verified ? "yes, bitwise" : "NO");
  std::printf("\nspeedup: %.1f%%   [paper formula (T_base - T_ours)/T_base]\n",
              sim::speedup_percent(
                  static_cast<double>(baseline.result.metrics.total),
                  static_cast<double>(cpu_free.result.metrics.total)));

  const auto& m = cpu_free.result.metrics;
  std::printf("\nCPU-Free breakdown: compute %.3f ms, comm %.3f ms "
              "(%.0f%% hidden), sync %.3f ms, host API %.3f ms\n",
              sim::to_msec(m.compute), sim::to_msec(m.comm),
              m.hidden_comm_ratio * 100.0, sim::to_msec(m.sync),
              sim::to_msec(m.host_api));

  if (!trace_path.empty()) {
    // Re-run with tracing into a fresh machine and dump the timeline.
    vgpu::Machine machine(spec);
    vshmem::World world(machine);
    stencil::StencilConfig tcfg = cfg;
    tcfg.iterations = 5;
    stencil::SlabStencil<stencil::Jacobi2D> s(world, prob, tcfg);
    stencil::run_variant(s, stencil::Variant::kCpuFree);
    std::ofstream f(trace_path);
    if (!(f << machine.trace().to_chrome_json())) {
      std::fprintf(stderr, "jacobi2d_cpufree: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("\n5-iteration timeline written to %s\n", trace_path.c_str());
    std::printf("%s", machine.trace().summary(machine.engine().now()).c_str());
  }
  return cpu_free.verified && baseline.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  stencil::Jacobi2D prob;
  prob.nx = 512;
  prob.ny = 512;
  stencil::StencilConfig cfg;
  cfg.iterations = 100;
  int gpus = 4;
  std::string trace_path;
  const example::Usage usage{"jacobi2d_cpufree",
                             "[nx ny iterations gpus] [--trace out.json] "
                             "(positive integers)"};
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 == argc) usage.fail(argv[i]);
      trace_path = argv[++i];
      continue;
    }
    switch (pos++) {
      case 0: prob.nx = usage.positive<std::size_t>(argv[i]); break;
      case 1: prob.ny = usage.positive<std::size_t>(argv[i]); break;
      case 2: cfg.iterations = usage.positive<int>(argv[i]); break;
      case 3: gpus = usage.positive<int>(argv[i]); break;
      default: usage.fail(argv[i]);
    }
  }
  return usage.run([&] { return solve(prob, cfg, gpus, trace_path); });
}
