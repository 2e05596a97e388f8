// Figure 2.2 — (a) pure communication + synchronization overheads with no
// computation; (b) communication overlap ratio % and total execution time.
//
// Small 2D domain (256^2 base, weak-scaled), CPU-controlled baseline versus
// CPU-Free. The paper's headline observations to reproduce in shape:
//   * with no computation, the baseline's per-iteration overhead is several
//     times the CPU-Free one (host API latencies dominate);
//   * with computation, the baseline overlaps only a small fraction of its
//     communication while CPU-Free hides almost all of it, and communication
//     takes the vast majority of the baseline's execution time.
//
// Also dumps a Chrome-trace timeline (--trace [path]) — the stand-in for the
// paper's Nsight screenshots (Fig. 2.1b).
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "vshmem/world.hpp"

namespace {

using stencil::Jacobi2D;
using stencil::StencilConfig;
using stencil::Variant;

Jacobi2D weak_scaled(std::size_t base, int gpus) {
  // Double alternating axes as devices double (§6.1.2).
  Jacobi2D p;
  p.nx = base;
  p.ny = base;
  int g = gpus;
  bool axis = false;  // start by growing ny (the partitioned axis)
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

std::vector<sweep::Param> params(const char* part, Variant v, int g) {
  return {{"part", part},
          {"variant", std::string(stencil::variant_name(v))},
          {"gpus", std::to_string(g)}};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(
      argc, argv, {.trace = true, .repeats = true});
  if (args.topo) {
    bench::print_topology(vgpu::MachineSpec::hgx_a100(8), "hgx_a100(8)");
    return 0;
  }
  if (args.check) {
    // Both parts of the figure: the no-compute communication skeleton and
    // the computing run, per variant, on a small 2-GPU instance.
    std::vector<bench::CheckCase> cases;
    for (const bool compute : {false, true}) {
      for (Variant v : {Variant::kBaselineCopy, Variant::kBaselineOverlap,
                        Variant::kBaselineP2P, Variant::kBaselineNvshmem,
                        Variant::kCpuFree}) {
        cases.push_back({std::string(stencil::variant_name(v)) +
                             (compute ? "/compute" : "/no_compute"),
                         [v, compute, &args](sim::Observer* obs) {
                           StencilConfig cfg;
                           cfg.iterations = 8;
                           cfg.compute_enabled = compute;
                           cfg.functional = compute;
                           cfg.persistent_blocks = 12;
                           cfg.observer = obs;
                           (void)stencil::run_jacobi2d(
                               v,
                               args.with_faults(vgpu::MachineSpec::hgx_a100(2)),
                               weak_scaled(64, 2), cfg);
                         }});
      }
    }
    return bench::run_check(cases);
  }
  bench::print_header("Figure 2.2",
                      "communication overheads and overlap, small 2D domain");
  bench::print_calibration(vgpu::MachineSpec::hgx_a100(8));
  bench::print_faults(args.faults);

  const std::vector<int> gpus = {2, 4, 8};
  constexpr int kIters = 200;
  constexpr Variant kNoComputeVariants[] = {
      Variant::kBaselineCopy, Variant::kBaselineOverlap, Variant::kBaselineP2P,
      Variant::kBaselineNvshmem, Variant::kCpuFree};
  constexpr Variant kComputeVariants[] = {
      Variant::kBaselineCopy, Variant::kBaselineOverlap, Variant::kCpuFree};

  {
    std::vector<bench::PolicyRow> policies;
    for (Variant v : kNoComputeVariants) {
      policies.emplace_back(stencil::variant_name(v), stencil::plan_for(v));
    }
    bench::print_policies(policies);
  }

  sweep::Executor ex(args.sweep_options());

  // (a) No-compute: per-iteration communication+synchronization time.
  for (Variant v : kNoComputeVariants) {
    for (int g : gpus) {
      ex.add(std::string("a/") + std::string(stencil::variant_name(v)) +
                 "/gpus=" + std::to_string(g),
             params("a", v, g), [v, g, repeats = args.repeats, &args] {
               StencilConfig cfg;
               cfg.iterations = kIters;
               cfg.functional = false;
               cfg.compute_enabled = false;
               const vgpu::MachineSpec spec =
                   args.with_faults(vgpu::MachineSpec::hgx_a100(g));
               sweep::RunResult res;
               res.spec = spec;
               sim::RunStats stats;
               for (int rep = 0; rep < repeats; ++rep) {
                 const auto out =
                     stencil::run_jacobi2d(v, spec, weak_scaled(256, g), cfg);
                 stats.add(out.result.metrics.per_iteration_us());
                 res.metrics = out.result.metrics;
               }
               res.set("per_iter_us", stats.min());
               bench::tag_workload(
                   res, "jacobi2d",
                   bench::slab_imbalance(weak_scaled(256, g).ny, g));
               return res;
             });
    }
  }

  // (b) With compute: total time and overlap ratio. A 1024^2 base keeps the
  // domain small (latency-sensitive) while leaving computation to hide
  // communication under.
  for (Variant v : kComputeVariants) {
    for (int g : gpus) {
      ex.add(std::string("b/") + std::string(stencil::variant_name(v)) +
                 "/gpus=" + std::to_string(g),
             params("b", v, g), [v, g, &args] {
               StencilConfig cfg;
               cfg.iterations = kIters;
               cfg.functional = false;
               const vgpu::MachineSpec spec =
                   args.with_faults(vgpu::MachineSpec::hgx_a100(g));
               const auto out =
                   stencil::run_jacobi2d(v, spec, weak_scaled(1024, g), cfg);
               sweep::RunResult res;
               res.spec = spec;
               res.metrics = out.result.metrics;
               res.set("total_ms", out.result.metrics.total_ms());
               res.set("overlap_pct",
                       out.result.metrics.hidden_comm_ratio * 100.0);
               res.set("noncompute_pct",
                       out.result.metrics.noncompute_fraction * 100.0);
               bench::tag_workload(
                   res, "jacobi2d",
                   bench::slab_imbalance(weak_scaled(1024, g).ny, g));
               return res;
             });
    }
  }

  const int threads = ex.resolved_threads();
  const std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  {
    std::vector<bench::Row> rows;
    for (Variant v : kNoComputeVariants) {
      bench::Row r{std::string(stencil::variant_name(v)), {}};
      for (std::size_t i = 0; i < gpus.size(); ++i) {
        r.values.push_back(cur.next().value("per_iter_us"));
      }
      rows.push_back(std::move(r));
    }
    bench::print_table(
        "(a) pure communication overhead per iteration (no compute)", gpus,
        rows, "us/iter");
  }

  {
    std::vector<bench::Row> total_rows;
    std::vector<bench::Row> overlap_rows;
    std::vector<bench::Row> commfrac_rows;
    for (Variant v : kComputeVariants) {
      bench::Row rt{std::string(stencil::variant_name(v)), {}};
      bench::Row ro = rt;
      bench::Row rc = rt;
      for (std::size_t i = 0; i < gpus.size(); ++i) {
        const sweep::RunRecord& rec = cur.next();
        rt.values.push_back(rec.value("total_ms"));
        ro.values.push_back(rec.value("overlap_pct"));
        rc.values.push_back(rec.value("noncompute_pct"));
      }
      total_rows.push_back(std::move(rt));
      overlap_rows.push_back(std::move(ro));
      commfrac_rows.push_back(std::move(rc));
    }
    bench::print_table("(b) total execution time", gpus, total_rows, "ms");
    bench::print_table("(b) communication overlapped with computation", gpus,
                       overlap_rows, "%");
    bench::print_table("(b) non-compute (communication) share of runtime",
                       gpus, commfrac_rows, "%");
  }

  bench::emit_records("fig2_2_overhead", args, threads, records);

  if (args.trace_dump) {
    StencilConfig cfg;
    cfg.iterations = 5;
    cfg.functional = false;
    vgpu::Machine machine(args.with_faults(vgpu::MachineSpec::hgx_a100(4)));
    machine.trace().keep_intervals();
    vshmem::World world(machine);
    stencil::SlabStencil<Jacobi2D> s(world, weak_scaled(256, 4), cfg);
    stencil::run_variant(s, Variant::kBaselineOverlap);
    std::ofstream f(args.trace_path);
    if (!(f << machine.trace().to_chrome_json())) {
      std::fprintf(stderr, "fig2_2_overhead: cannot write %s\n",
                   args.trace_path.c_str());
      return 1;
    }
    std::printf("timeline written to %s (open in chrome://tracing)\n",
                args.trace_path.c_str());
  }
  return 0;
}
