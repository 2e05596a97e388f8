// Topology contention study — the same weak-scaled 2D Jacobi, all seven code
// variants, on three 8-GPU machines that differ only in their interconnect:
//
//   * hgx_a100   — NVSwitch crossbar: a dedicated FIFO lane per ordered pair
//                  (the calibration machine; matches the flat cost model).
//   * dgx_pcie   — PCIe tree, no NVLink: peer traffic, cross-group traffic
//                  and host staging all share the tree's links.
//   * multi_node — 2 nodes x 4 GPUs: NVSwitch inside a node, shared NIC
//                  injection + network links between nodes.
//
// The figure reports per-iteration time per (variant, topology) and each
// variant's slowdown vs the crossbar, showing which compositions are
// bandwidth-bound enough for link sharing to matter and which hide it.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"

namespace {

using stencil::Jacobi2D;
using stencil::StencilConfig;
using stencil::Variant;

std::vector<Variant> all_variants() {
  std::vector<Variant> v(std::begin(stencil::kAllVariants),
                         std::end(stencil::kAllVariants));
  v.push_back(Variant::kCpuFreeTwoKernels);
  return v;
}

struct TopoClass {
  const char* name;  // human-readable table caption
  const char* key;   // JSON parameter value
  vgpu::MachineSpec sweep_spec;  // the 8-device evaluation machine
  vgpu::MachineSpec check_spec;  // a 2-device instance for --check
};

std::vector<TopoClass> topo_classes() {
  return {
      {"HGX A100 (NVSwitch crossbar)", "hgx_a100",
       vgpu::MachineSpec::hgx_a100(8), vgpu::MachineSpec::hgx_a100(2)},
      {"DGX PCIe tree (no NVLink)", "dgx_pcie", vgpu::MachineSpec::dgx_pcie(8),
       vgpu::MachineSpec::dgx_pcie(2)},
      {"2 nodes x 4 GPUs (NIC + network)", "multi_node",
       vgpu::MachineSpec::multi_node(2, 4), vgpu::MachineSpec::multi_node(2, 1)},
  };
}

/// The medium domain of Figure 6.1 weak-scaled to 8 GPUs; large enough for
/// halo traffic to be a visible fraction of an iteration.
Jacobi2D sweep_problem() {
  Jacobi2D p;
  p.nx = 4096;
  p.ny = 4096;
  return p;
}

constexpr int kSweepIters = 30;

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  std::vector<TopoClass> topos = topo_classes();
  for (TopoClass& tc : topos) {
    tc.sweep_spec = args.with_faults(tc.sweep_spec);
    tc.check_spec = args.with_faults(tc.check_spec);
  }
  const std::vector<Variant> variants = all_variants();

  if (args.topo) {
    for (const TopoClass& tc : topos) {
      bench::print_topology(tc.sweep_spec, tc.key);
    }
    return 0;
  }
  if (args.check) {
    // Every variant on every topology class (2-device instances): the
    // synchronization protocols must stay race- and deadlock-free no matter
    // which wires carry the puts.
    std::vector<bench::CheckCase> cases;
    for (const TopoClass& tc : topos) {
      for (Variant v : variants) {
        cases.push_back({std::string(tc.key) + "/" +
                             std::string(stencil::variant_name(v)),
                         [spec = tc.check_spec, v](sim::Observer* obs) {
                           StencilConfig cfg;
                           cfg.iterations = 8;
                           cfg.persistent_blocks = 12;
                           cfg.observer = obs;
                           Jacobi2D p;
                           p.nx = 64;
                           p.ny = 128;
                           (void)stencil::run_jacobi2d(v, spec, p, cfg);
                         }});
      }
    }
    return bench::run_check(cases);
  }

  bench::print_header("Topology contention",
                      "2D Jacobi, 7 variants x 3 interconnects, 8 GPUs");
  bench::print_calibration(vgpu::MachineSpec::hgx_a100(8));
  bench::print_faults(args.faults);
  {
    std::vector<bench::PolicyRow> policies;
    for (Variant v : variants) {
      policies.emplace_back(stencil::variant_name(v), stencil::plan_for(v));
    }
    bench::print_policies(policies);
  }

  sweep::Executor ex(args.sweep_options());
  for (const TopoClass& tc : topos) {
    for (Variant v : variants) {
      ex.add(std::string(tc.key) + "/" + std::string(stencil::variant_name(v)),
             {{"topology", tc.key},
              {"variant", std::string(stencil::variant_name(v))},
              {"gpus", "8"}},
             [spec = tc.sweep_spec, v] {
               StencilConfig cfg;
               cfg.iterations = kSweepIters;
               cfg.functional = false;
               sweep::RunResult res;
               res.spec = spec;
               res.metrics =
                   stencil::run_jacobi2d(v, spec, sweep_problem(), cfg)
                       .result.metrics;
               res.set("per_iter_us", res.metrics.per_iteration_us());
               bench::tag_workload(
                   res, "jacobi2d",
                   bench::slab_imbalance(sweep_problem().ny, spec.num_devices));
               return res;
             });
    }
  }

  const int threads = ex.resolved_threads();
  const std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  // vals[topology][variant]
  std::vector<std::vector<double>> vals;
  for (std::size_t t = 0; t < topos.size(); ++t) {
    std::vector<double> row;
    for (std::size_t i = 0; i < variants.size(); ++i) {
      row.push_back(cur.next().value("per_iter_us"));
    }
    vals.push_back(std::move(row));
  }

  std::printf("per-iteration time by interconnect [us/iter]\n");
  std::printf("  %-24s", "variant");
  for (const TopoClass& tc : topos) std::printf("  %14s", tc.key);
  std::printf("\n");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::string label{stencil::variant_name(variants[i])};
    std::printf("  %-24s", label.c_str());
    for (std::size_t t = 0; t < topos.size(); ++t) {
      std::printf("  %14.2f", vals[t][i]);
    }
    std::printf("\n");
  }
  std::printf("\n");

  std::printf("slowdown vs %s:\n", topos[0].key);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::string label{stencil::variant_name(variants[i])};
    std::printf("  %-24s", label.c_str());
    for (std::size_t t = 1; t < topos.size(); ++t) {
      std::printf("  %s %+6.1f%%", topos[t].key,
                  (vals[t][i] / vals[0][i] - 1.0) * 100.0);
    }
    std::printf("\n");
  }
  std::printf("\n");

  bench::emit_records("fig_topo_contention", args, threads, records);
  return 0;
}
