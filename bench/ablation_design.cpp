// Ablations of the design choices the paper calls out:
//   1. Thread-block specialization share (§4.1.2): the proportional formula
//      versus a fixed single boundary TB versus an equal three-way split, on
//      a small unbalanced 3D domain (where the paper says proportional
//      splitting matters).
//   2. Communication scope (§3.1.4): block-cooperative puts
//      (nvshmemx_*_block) versus thread-scoped puts.
//   3. Nonblocking (nbi) vs blocking puts in compiler-generated persistent
//      kernels (§5.3.2).
//   4. Relaxed vs conservative grid-barrier placement in the persistent
//      fusion (§5.1).
#include <cstdio>

#include "bench_common.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"
#include "vshmem/world.hpp"

namespace {

using stencil::StencilConfig;
using stencil::TbPolicy;
using stencil::Variant;

// The arm table below is captureless function pointers; the fault plane
// selected on the command line is routed through this file-scope config,
// set once in main() before any run.
fault::Config g_faults;

sweep::RunResult run3d(TbPolicy policy, vshmem::Scope scope, int gpus,
                       sim::Observer* obs = nullptr) {
  stencil::Jacobi3D p;
  p.nx = 512;
  p.ny = 256;
  p.nz = 16 * static_cast<std::size_t>(gpus);  // thin, unbalanced slabs
  StencilConfig cfg;
  cfg.iterations = obs != nullptr ? 6 : 50;
  cfg.functional = false;
  cfg.tb_policy = policy;
  cfg.comm_scope = scope;
  cfg.observer = obs;
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(gpus);
  spec.faults = g_faults;
  const auto out = stencil::run_jacobi3d(Variant::kCpuFree, spec, p, cfg);
  sweep::RunResult res;
  res.spec = spec;
  res.metrics = out.result.metrics;
  res.set("per_iter_us", out.result.metrics.per_iteration_us());
  bench::tag_workload(res, "jacobi3d", bench::slab_imbalance(p.nz, gpus));
  return res;
}

sweep::RunResult run_stencil2d(Variant v, int gpus) {
  stencil::Jacobi2D p;
  p.nx = 2048;
  p.ny = 2048;
  StencilConfig cfg;
  cfg.iterations = 50;
  cfg.functional = false;
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(gpus);
  spec.faults = g_faults;
  const auto out = stencil::run_jacobi2d(v, spec, p, cfg);
  sweep::RunResult res;
  res.spec = spec;
  res.metrics = out.result.metrics;
  res.set("per_iter_us", out.result.metrics.per_iteration_us());
  bench::tag_workload(res, "jacobi2d", bench::slab_imbalance(p.ny, gpus));
  return res;
}

sweep::RunResult run_dace2d(bool blocking, bool conservative, int gpus,
                            sim::Observer* obs = nullptr) {
  auto prog = dacelite::make_jacobi2d(obs != nullptr ? 128 : 2048, gpus,
                                      obs != nullptr ? 8 : 50);
  // Barrier placement is the persistent pass's decision (§5.1).
  dacelite::Recipe recipe = dacelite::Recipe::cpu_free_default();
  if (conservative) recipe.steps.back().params["barriers"] = "conservative";
  dacelite::Pipeline().apply(prog.sdfg, recipe);
  vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(gpus);
  spec.faults = g_faults;
  vgpu::Machine m(spec);
  m.engine().set_observer(obs);
  vshmem::World w(m);
  dacelite::ProgramData data(w, prog.sdfg, false);
  dacelite::ExecOptions opt;
  opt.functional = false;
  opt.blocking_puts = blocking;
  const auto r = dacelite::execute_persistent(m, w, data, prog.sdfg, opt);
  sweep::RunResult res;
  res.spec = spec;
  res.metrics = r.metrics;
  res.set("per_iter_us", sim::to_usec(r.metrics.per_iteration));
  res.set("persistent_blocks", r.persistent_blocks);
  res.note("put_expansion", r.put_expansion);
  // The dacelite frontend requires the domain to divide by the process
  // grid, so its partition is exactly even.
  bench::tag_workload(res, "dacelite", 1.0);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  g_faults = args.faults;
  if (args.topo) {
    bench::print_topology(vgpu::MachineSpec::hgx_a100(8), "hgx_a100(8)");
    return 0;
  }
  if (args.check) {
    // One case per ablation arm: every knob setting must stay race- and
    // deadlock-free, not just the paper's default composition.
    const std::vector<bench::CheckCase> cases = {
        {"tb_proportional", [](sim::Observer* o) {
           run3d(TbPolicy::kProportional, vshmem::Scope::kBlock, 2, o);
         }},
        {"tb_single_block", [](sim::Observer* o) {
           run3d(TbPolicy::kSingleBlock, vshmem::Scope::kBlock, 2, o);
         }},
        {"tb_equal_split", [](sim::Observer* o) {
           run3d(TbPolicy::kEqualSplit, vshmem::Scope::kBlock, 2, o);
         }},
        {"thread_scoped_puts", [](sim::Observer* o) {
           run3d(TbPolicy::kProportional, vshmem::Scope::kThread, 2, o);
         }},
        {"dace_nbi_puts",
         [](sim::Observer* o) { run_dace2d(false, false, 2, o); }},
        {"dace_blocking_puts",
         [](sim::Observer* o) { run_dace2d(true, false, 2, o); }},
        {"dace_conservative_barriers",
         [](sim::Observer* o) { run_dace2d(false, true, 2, o); }},
    };
    return bench::run_check(cases);
  }
  bench::print_header("Ablations", "design choices called out in the paper");
  bench::print_calibration(vgpu::MachineSpec::hgx_a100(8));
  bench::print_faults(args.faults);
  const std::vector<int> gpus = {2, 4, 8};

  // Every arm perturbs one knob of the same CPU-Free composition (the
  // dacelite persistent backend runs the identical triple).
  bench::print_policies(
      {{stencil::variant_name(Variant::kCpuFree),
        stencil::plan_for(Variant::kCpuFree)},
       {stencil::variant_name(Variant::kCpuFreeTwoKernels),
        stencil::plan_for(Variant::kCpuFreeTwoKernels)}});

  // Every ablation arm, in table order; each arm contributes one row whose
  // columns are the GPU counts.
  struct Arm {
    const char* study;
    const char* label;
    sweep::RunResult (*run)(int gpus);
  };
  const Arm arms[] = {
      {"tb_policy", "proportional (paper)",
       [](int g) { return run3d(TbPolicy::kProportional, vshmem::Scope::kBlock, g); }},
      {"tb_policy", "single boundary TB",
       [](int g) { return run3d(TbPolicy::kSingleBlock, vshmem::Scope::kBlock, g); }},
      {"tb_policy", "equal three-way split",
       [](int g) { return run3d(TbPolicy::kEqualSplit, vshmem::Scope::kBlock, g); }},
      {"put_scope", "block-scoped puts (paper)",
       [](int g) { return run3d(TbPolicy::kProportional, vshmem::Scope::kBlock, g); }},
      {"put_scope", "thread-scoped puts",
       [](int g) { return run3d(TbPolicy::kProportional, vshmem::Scope::kThread, g); }},
      {"put_blocking", "nbi puts (default)",
       [](int g) { return run_dace2d(false, false, g); }},
      {"put_blocking", "blocking puts",
       [](int g) { return run_dace2d(true, false, g); }},
      {"kernel_org", "single kernel + TB specialization",
       [](int g) { return run_stencil2d(Variant::kCpuFree, g); }},
      {"kernel_org", "two co-resident kernels",
       [](int g) { return run_stencil2d(Variant::kCpuFreeTwoKernels, g); }},
      {"barriers", "relaxed barriers (this work)",
       [](int g) { return run_dace2d(false, false, g); }},
      {"barriers", "barrier after every state",
       [](int g) { return run_dace2d(false, true, g); }},
  };

  sweep::Executor ex(args.sweep_options());
  for (const Arm& arm : arms) {
    for (int g : gpus) {
      ex.add(std::string(arm.study) + "/" + arm.label +
                 "/gpus=" + std::to_string(g),
             {{"study", arm.study},
              {"arm", arm.label},
              {"gpus", std::to_string(g)}},
             [&arm, g] { return arm.run(g); });
    }
  }

  const int threads = ex.resolved_threads();
  const std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  auto take_row = [&](const char* label) {
    bench::Row r{label, {}};
    for (std::size_t i = 0; i < gpus.size(); ++i) {
      r.values.push_back(cur.next().value("per_iter_us"));
    }
    return r;
  };

  bench::print_table(
      "1. TB specialization policy, unbalanced 3D domain (CPU-Free)", gpus,
      {take_row("proportional (paper)"), take_row("single boundary TB"),
       take_row("equal three-way split")},
      "us/iter");
  bench::print_table(
      "2. halo put scope (CPU-Free 3D)", gpus,
      {take_row("block-scoped puts (paper)"), take_row("thread-scoped puts")},
      "us/iter");
  bench::print_table(
      "3. nonblocking vs blocking puts (dacelite jacobi2d)", gpus,
      {take_row("nbi puts (default)"), take_row("blocking puts")}, "us/iter");
  bench::print_table(
      "4. single persistent kernel vs two co-resident kernels (2D)", gpus,
      {take_row("single kernel + TB specialization"),
       take_row("two co-resident kernels")},
      "us/iter");
  bench::print_table(
      "5. persistent-fusion barrier placement (dacelite)", gpus,
      {take_row("relaxed barriers (this work)"),
       take_row("barrier after every state")},
      "us/iter");

  bench::emit_records("ablation_design", args, threads, records);
  return 0;
}
