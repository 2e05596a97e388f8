// Compiler walkthrough: build a distributed Jacobi SDFG the way a DaCe user
// would, inspect it, replay the CPU-Free porting recipe (GPUTransform ->
// MPI->NVSHMEM -> NVSHMEMArray -> GPUPersistentKernel) through the pass
// pipeline, execute BOTH the discrete MPI baseline and the generated
// CPU-Free program, verify each against the serial reference, and compare.
//
//   $ ./dacelite_jacobi [grid ranks iterations]
//
// Every argument must be a positive decimal integer, and the grid must
// divide by the process grid; anything else exits 2. A verification
// failure exits 1.
#include <cstdio>
#include <variant>

#include "args.hpp"
#include "dacelite/exec.hpp"
#include "sim/stats.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "hostmpi/comm.hpp"
#include "vshmem/world.hpp"

namespace {

void describe(const dacelite::Sdfg& sdfg) {
  std::printf("SDFG '%s': %zu loop states, %zu arrays%s%s\n",
              sdfg.name.c_str(), sdfg.body.size(), sdfg.arrays.size(),
              sdfg.gpu ? ", GPU" : "", sdfg.persistent ? ", persistent" : "");
  for (const auto& [name, desc] : sdfg.arrays) {
    std::printf("  array %-4s  %8zu elems  storage=%s\n", name.c_str(),
                desc.size, dacelite::storage_name(desc.storage));
  }
  for (std::size_t i = 0; i < sdfg.body.size(); ++i) {
    const auto& st = sdfg.body[i];
    int maps = 0, lib = 0;
    for (const auto& n : st.nodes) {
      if (std::holds_alternative<dacelite::MapNode>(n)) ++maps;
      if (std::holds_alternative<dacelite::LibraryNode>(n)) ++lib;
    }
    std::printf("  state %zu '%s': %d map(s), %d library node(s)%s\n", i,
                st.name.c_str(), maps, lib,
                sdfg.persistent && sdfg.barrier_after[i] ? " + grid barrier"
                                                         : "");
  }
}

bool matches(const std::vector<double>& a, const std::vector<double>& b) {
  return a == b;
}

int walkthrough(std::size_t grid, int ranks, int iters) {
  std::printf("=== 1. Frontend: distributed 2D Jacobi with MPI nodes ===\n");
  auto baseline = dacelite::make_jacobi2d(grid, ranks, iters);
  const dacelite::Recipe base_recipe = dacelite::Recipe::gpu_baseline();
  std::printf("recipe: %s\n", base_recipe.serialize().c_str());
  dacelite::Pipeline().apply(baseline.sdfg, base_recipe);
  describe(baseline.sdfg);

  std::printf("\n=== 2. Execute the discrete (CPU-controlled) baseline ===\n");
  double baseline_ms = 0.0;
  bool verified = true;
  {
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(ranks));
    vshmem::World w(m);
    hostmpi::Comm comm(m);
    dacelite::ProgramData data(w, baseline.sdfg, /*functional=*/true);
    const auto r = dacelite::execute_discrete(m, comm, data, baseline.sdfg,
                                              dacelite::ExecOptions{});
    baseline_ms = r.metrics.total_ms();
    const bool ok = matches(baseline.gather(data), baseline.reference(iters));
    verified = verified && ok;
    std::printf("total %.3f ms, non-compute %.0f%%, verified: %s\n",
                baseline_ms, r.metrics.noncompute_fraction * 100.0,
                ok ? "bitwise" : "FAILED");
  }

  std::printf("\n=== 3. Port to CPU-Free (the paper's 6.2.1 recipe) ===\n");
  auto ported = dacelite::make_jacobi2d(grid, ranks, iters);
  const dacelite::Recipe recipe = dacelite::Recipe::cpu_free_default();
  std::printf("recipe: %s\n", recipe.serialize().c_str());
  const std::vector<dacelite::AppliedStep> applied =
      dacelite::Pipeline().apply(ported.sdfg, recipe);
  for (const dacelite::AppliedStep& step : applied) {
    std::printf("  pass %-16s changed %d node(s)/array(s)\n",
                step.step.pass.c_str(), step.changed);
  }
  describe(ported.sdfg);

  std::printf("\n=== 4. Execute the generated persistent CPU-Free program ===\n");
  {
    vgpu::Machine m(vgpu::MachineSpec::hgx_a100(ranks));
    vshmem::World w(m);
    dacelite::ProgramData data(w, ported.sdfg, true);
    const auto r = dacelite::execute_persistent(m, w, data, ported.sdfg,
                                                dacelite::exec_options(recipe));
    const bool ok = matches(ported.gather(data), ported.reference(iters));
    verified = verified && ok;
    std::printf("total %.3f ms, verified: %s  (put expansion: %s, %d blocks)\n",
                r.metrics.total_ms(), ok ? "bitwise" : "FAILED",
                r.put_expansion.c_str(), r.persistent_blocks);
    std::printf("\nimprovement over the MPI baseline: %.1f%%\n",
                sim::speedup_percent(baseline_ms, r.metrics.total_ms()));
  }
  return verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t grid = 128;
  int ranks = 4;
  int iters = 20;
  const example::Usage usage{"dacelite_jacobi", "[grid ranks iterations] (positive integers)"};
  if (argc > 4) usage.fail(argv[4]);
  if (argc > 1) grid = usage.positive<std::size_t>(argv[1]);
  if (argc > 2) ranks = usage.positive<int>(argv[2]);
  if (argc > 3) iters = usage.positive<int>(argv[3]);
  return usage.run([&] { return walkthrough(grid, ranks, iters); });
}
