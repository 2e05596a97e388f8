// Figure 6.1 — weak scaling of the 2D Jacobi stencil, small / medium / large
// domains (256^2, 2048^2, 8192^2 base), 1-8 A100s, all six code variants.
//
// Shape targets from the paper (at 8 GPUs):
//   * small/medium: CPU-Free ~40-50% faster than the best baseline
//     (Baseline NVSHMEM) and ~95%+ faster than Baseline Copy/Overlap;
//   * large: plain CPU-Free LOSES to the baselines (software tiling,
//     §4.1.4/§6.1.2) while CPU-Free PERKS wins (~19% in the paper) and weak-
//     scales within a few percent.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"

namespace {

using stencil::Jacobi2D;
using stencil::StencilConfig;
using stencil::Variant;

Jacobi2D weak_scaled(std::size_t base, int gpus) {
  Jacobi2D p;
  p.nx = base;
  p.ny = base;
  int g = gpus;
  bool axis = false;
  while (g > 1) {
    if (axis) {
      p.nx *= 2;
    } else {
      p.ny *= 2;
    }
    axis = !axis;
    g /= 2;
  }
  return p;
}

struct DomainClass {
  const char* name;
  const char* key;
  std::size_t base;
  int iters;
};

constexpr DomainClass kClasses[] = {
    {"small (256^2)", "small", 256, 200},
    {"medium (2048^2)", "medium", 2048, 50},
    {"large (8192^2)", "large", 8192, 10},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  if (args.topo) {
    bench::print_topology(vgpu::MachineSpec::hgx_a100(8), "hgx_a100(8)");
    return 0;
  }
  if (args.check) {
    // Every stencil variant (including the §4 two-kernel design) on a small
    // functional instance, under the race/deadlock checker.
    std::vector<bench::CheckCase> cases;
    std::vector<Variant> variants;
    for (Variant v : stencil::kAllVariants) variants.push_back(v);
    variants.push_back(Variant::kCpuFreeTwoKernels);
    for (Variant v : variants) {
      cases.push_back({std::string(stencil::variant_name(v)),
                       [v, &args](sim::Observer* obs) {
                         StencilConfig cfg;
                         cfg.iterations = 8;
                         cfg.persistent_blocks = 12;
                         cfg.observer = obs;
                         (void)stencil::run_jacobi2d(
                             v, args.with_faults(vgpu::MachineSpec::hgx_a100(2)),
                             weak_scaled(64, 2), cfg);
                       }});
    }
    return bench::run_check(cases);
  }
  bench::print_header("Figure 6.1", "2D Jacobi weak scaling, 6 variants");
  bench::print_calibration(vgpu::MachineSpec::hgx_a100(8));
  bench::print_faults(args.faults);

  const std::vector<int> gpus = {1, 2, 4, 8};

  {
    std::vector<bench::PolicyRow> policies;
    for (Variant v : stencil::kAllVariants) {
      policies.emplace_back(stencil::variant_name(v), stencil::plan_for(v));
    }
    bench::print_policies(policies);
  }

  sweep::Executor ex(args.sweep_options());
  for (const DomainClass& dc : kClasses) {
    for (Variant v : stencil::kAllVariants) {
      for (int g : gpus) {
        ex.add(std::string(dc.key) + "/" +
                   std::string(stencil::variant_name(v)) +
                   "/gpus=" + std::to_string(g),
               {{"domain", dc.key},
                {"variant", std::string(stencil::variant_name(v))},
                {"gpus", std::to_string(g)}},
               [dc, v, g, &args] {
                 StencilConfig cfg;
                 cfg.iterations = dc.iters;
                 cfg.functional = false;
                 const vgpu::MachineSpec spec =
                     args.with_faults(vgpu::MachineSpec::hgx_a100(g));
                 sweep::RunResult res;
                 res.spec = spec;
                 res.metrics = stencil::run_jacobi2d(
                                   v, spec, weak_scaled(dc.base, g), cfg)
                                   .result.metrics;
                 res.set("per_iter_us", res.metrics.per_iteration_us());
                 bench::tag_workload(
                     res, "jacobi2d",
                     bench::slab_imbalance(weak_scaled(dc.base, g).ny, g));
                 return res;
               });
      }
    }
  }

  const int threads = ex.resolved_threads();
  const std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  for (const DomainClass& dc : kClasses) {
    std::vector<bench::Row> rows;
    for (Variant v : stencil::kAllVariants) {
      bench::Row r{std::string(stencil::variant_name(v)), {}};
      for (std::size_t i = 0; i < gpus.size(); ++i) {
        r.values.push_back(cur.next().value("per_iter_us"));
      }
      rows.push_back(std::move(r));
    }
    bench::print_table(std::string("per-iteration time, ") + dc.name, gpus,
                       rows, "us/iter");

    // Paper-style speedup summaries at 8 GPUs.
    auto value_of = [&rows](Variant v, std::size_t idx) {
      return rows[static_cast<std::size_t>(v)].values[idx];
    };
    const std::size_t at8 = gpus.size() - 1;
    const double best_baseline =
        std::min({value_of(Variant::kBaselineCopy, at8),
                  value_of(Variant::kBaselineOverlap, at8),
                  value_of(Variant::kBaselineP2P, at8),
                  value_of(Variant::kBaselineNvshmem, at8)});
    std::printf("  at 8 GPUs: CPU-Free vs best baseline: %+6.1f%%   "
                "vs Baseline Copy: %+6.1f%%   PERKS vs best baseline: %+6.1f%%\n",
                sim::speedup_percent(best_baseline,
                                     value_of(Variant::kCpuFree, at8)),
                sim::speedup_percent(value_of(Variant::kBaselineCopy, at8),
                                     value_of(Variant::kCpuFree, at8)),
                sim::speedup_percent(best_baseline,
                                     value_of(Variant::kCpuFreePerks, at8)));
    // Weak-scaling efficiency of PERKS (paper: <= ~9% dropoff at 8 GPUs on
    // the largest domain).
    const double perks1 = rows[5].values[0];
    const double perks8 = rows[5].values[at8];
    std::printf("  CPU-Free PERKS weak-scaling dropoff 1->8 GPUs: %.1f%%\n\n",
                (perks8 / perks1 - 1.0) * 100.0);
  }

  bench::emit_records("fig6_1_weak2d", args, threads, records);
  return 0;
}
