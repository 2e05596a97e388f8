// Conjugate Gradient on the CPU-Free model — extension application.
//
// CG stresses the execution model harder than the stencil: two GLOBAL
// reductions per iteration and a data-dependent termination test. In the
// CPU-controlled baseline each dot product forces a stream synchronization
// (the host needs the scalar) plus an MPI reduction and a host barrier; in
// the CPU-Free version the reductions AND the convergence decision happen on
// the devices — the host never sees a residual.
//
//   $ ./cg_solver [nx ny max_iters gpus]
//
// Every argument must be a positive decimal integer; anything else exits 2
// with the usage line.
#include <cstdio>

#include "args.hpp"
#include "sim/stats.hpp"
#include "solvers/cg.hpp"

namespace {

int solve(const solvers::CgConfig& cfg, int gpus) {
  std::printf("CG on the %zux%zu 2D Laplacian, tol %.0e, %d virtual A100s\n\n",
              cfg.nx, cfg.ny, cfg.tolerance, gpus);

  const auto spec = vgpu::MachineSpec::hgx_a100(gpus);
  const auto ref = solvers::cg_reference(cfg, gpus);
  const auto cpu_free = solvers::run_cg_cpufree(spec, cfg);
  const auto baseline = solvers::run_cg_baseline(spec, cfg);

  const bool free_ok = cpu_free.rr_history == ref.rr_history;
  const bool base_ok = baseline.rr_history == ref.rr_history;
  std::printf("CPU-Free:  converged in %3d iters, rr = %.3e, %8.3f ms  "
              "(reference match: %s)\n",
              cpu_free.iterations_run, cpu_free.final_rr,
              cpu_free.metrics.total_ms(), free_ok ? "bitwise" : "NO");
  std::printf("Baseline:  converged in %3d iters, rr = %.3e, %8.3f ms  "
              "(reference match: %s)\n",
              baseline.iterations_run, baseline.final_rr,
              baseline.metrics.total_ms(), base_ok ? "bitwise" : "NO");
  std::printf("\nspeedup: %.1f%%\n",
              sim::speedup_percent(
                  static_cast<double>(baseline.metrics.total),
                  static_cast<double>(cpu_free.metrics.total)));
  std::printf("\nper-iteration: CPU-Free %.2f us vs baseline %.2f us\n",
              cpu_free.metrics.per_iteration_us(),
              baseline.metrics.per_iteration_us());
  std::printf("baseline host API time: %.3f ms (launches, dot-product syncs, "
              "MPI reductions) — all absent in CPU-Free\n",
              sim::to_msec(baseline.metrics.host_api));
  return free_ok && base_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  solvers::CgConfig cfg;
  cfg.nx = 128;
  cfg.ny = 128;
  cfg.max_iterations = 300;
  cfg.tolerance = 1e-12;
  int gpus = 4;
  const example::Usage usage{"cg_solver", "[nx ny max_iters gpus] (positive integers)"};
  if (argc > 5) usage.fail(argv[5]);
  if (argc > 1) cfg.nx = usage.positive<std::size_t>(argv[1]);
  if (argc > 2) cfg.ny = usage.positive<std::size_t>(argv[2]);
  if (argc > 3) cfg.max_iterations = usage.positive<int>(argv[3]);
  if (argc > 4) gpus = usage.positive<int>(argv[4]);
  return usage.run([&] { return solve(cfg, gpus); });
}
