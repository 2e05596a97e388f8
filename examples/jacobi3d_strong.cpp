// Strong-scaling study driver: fixed 3D domain, growing GPU count, CSV
// output for plotting. Demonstrates the regime where the paper says the
// CPU-Free model shines: as devices grow, per-device work shrinks and the
// CPU-controlled baselines become bound by host latencies while CPU-Free
// stays flat.
//
//   $ ./jacobi3d_strong [nx ny nz iterations] > strong_scaling.csv
//
// Every argument must be a positive decimal integer, and nz must give every
// device of the 8-GPU point two slabs; anything else exits 2.
#include <cstdio>

#include "args.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"

namespace {

int sweep(const stencil::Jacobi3D& prob, const stencil::StencilConfig& cfg) {
  std::fprintf(stderr, "3D Jacobi strong scaling on %zux%zux%zu, %d iters\n",
               prob.nx, prob.ny, prob.nz, cfg.iterations);
  std::printf("gpus,variant,per_iteration_us,comm_us,noncompute_pct\n");
  for (int gpus : {1, 2, 4, 8}) {
    for (stencil::Variant v : stencil::kAllVariants) {
      const auto out = stencil::run_jacobi3d(
          v, vgpu::MachineSpec::hgx_a100(gpus), prob, cfg);
      std::printf("%d,%s,%.3f,%.3f,%.1f\n", gpus,
                  std::string(stencil::variant_name(v)).c_str(),
                  out.result.metrics.per_iteration_us(),
                  sim::to_usec(out.result.metrics.comm),
                  out.result.metrics.noncompute_fraction * 100.0);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  stencil::Jacobi3D prob;
  prob.nx = 256;
  prob.ny = 256;
  prob.nz = 128;
  stencil::StencilConfig cfg;
  cfg.iterations = 50;
  cfg.functional = false;  // timing-only sweep
  const example::Usage usage{"jacobi3d_strong", "[nx ny nz iterations] (positive integers)"};
  if (argc > 5) usage.fail(argv[5]);
  if (argc > 1) prob.nx = usage.positive<std::size_t>(argv[1]);
  if (argc > 2) prob.ny = usage.positive<std::size_t>(argv[2]);
  if (argc > 3) prob.nz = usage.positive<std::size_t>(argv[3]);
  if (argc > 4) cfg.iterations = usage.positive<int>(argv[4]);
  return usage.run([&] { return sweep(prob, cfg); });
}
