// Multi-GPU Conjugate Gradient on the CPU-Free model.
//
// CG is the second iterative application PERKS (Zhang et al. 2022)
// demonstrates, and a harder test of the execution model than the stencil:
// besides halo exchanges it needs two GLOBAL dot-product reductions per
// iteration, and the loop has a data-dependent termination test.
//
//  * CPU-Free variant: one persistent kernel per device; halo exchange with
//    signaled puts (iteration-flag protocol); dot products with a
//    device-side all-to-all allreduce over symmetric slots; the convergence
//    decision is taken ON THE DEVICES — the host never sees a residual.
//  * Baseline variant: the classic CPU-orchestrated CG — one kernel launch
//    per phase (SpMV, dots, AXPYs), a stream synchronization after every dot
//    (the host needs the scalar), MPI all-to-all for the reductions, and a
//    host-side convergence test.
//
// The operator is the matrix-free 2D 5-point Laplacian (SPD) with Dirichlet
// boundaries, decomposed in row slabs like the stencil. Distributed runs are
// verified bit-for-bit against a serial reference that reproduces the same
// partial-sum reduction order.
//
// This is the stencil instance of the one CG solver (sparse_cg.cpp): it
// shares the sparse solver's setup, reference, persistent body and host
// loop over the balanced split, and keeps its own term order, 16-byte
// per-point SpMV cost, names, and persistent iterations with no grid sync.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cpufree/metrics.hpp"
#include "exec/policy.hpp"
#include "sim/task.hpp"
#include "vgpu/costmodel.hpp"

namespace vshmem {
class World;
}

namespace solvers {

struct SparseCgConfig;

struct CgConfig : exec::RunOptions {
  std::size_t nx = 64;
  std::size_t ny = 64;
  int max_iterations = 100;
  /// Stop when rr (squared residual norm) falls below this.
  double tolerance = 1e-10;
};

struct CgResult {
  cpufree::RunMetrics metrics;
  int iterations_run = 0;
  double final_rr = 0.0;
  /// rr after every iteration (functional runs only).
  std::vector<double> rr_history;
};

/// Serial reference with the same partition-shaped reduction order as a
/// `ranks`-device distributed run (so distributed results match bitwise).
/// Computed once per process for each (nx, ny, max_iterations, tolerance,
/// ranks); every call returns its own copy. Throws std::invalid_argument
/// naming `ranks` when it is below 1.
[[nodiscard]] CgResult cg_reference(const CgConfig& config, int ranks);

/// CPU-Free persistent-kernel CG.
[[nodiscard]] CgResult run_cg_cpufree(const vgpu::MachineSpec& spec,
                                      const CgConfig& config);

/// CPU-controlled baseline CG (discrete kernels, host reductions/sync).
[[nodiscard]] CgResult run_cg_baseline(const vgpu::MachineSpec& spec,
                                       const CgConfig& config);

/// CPU-Free CG bound to an existing world whose engine is driven
/// EXTERNALLY — the building block the multi-tenant job server schedules.
/// The world may be a device slice; its machine's spec sizes the persistent
/// launch. Allocation and initialization happen in the constructor, the
/// kernels launch when the engine first resumes the task() coroutine, and
/// the result accessors are valid once it completes.
/// The config's type picks the operator: a CgConfig runs matrix-free CG
/// (results bitwise-comparable to cg_reference(config, world.n_pes())), a
/// SparseCgConfig sparse CG (sparse_cg_reference); reference() returns that
/// reference. A config whose `functional` is not the World's is rejected
/// (exec::check_mode) before anything is allocated.
class CgCpufreeJob {
 public:
  CgCpufreeJob(vshmem::World& world, const CgConfig& config);
  CgCpufreeJob(vshmem::World& world, const SparseCgConfig& config);
  ~CgCpufreeJob();
  CgCpufreeJob(const CgCpufreeJob&) = delete;
  CgCpufreeJob& operator=(const CgCpufreeJob&) = delete;

  /// Spawnable: completes when every PE's persistent kernel has drained.
  /// Call at most once.
  [[nodiscard]] sim::Task task();

  [[nodiscard]] int iterations_run() const;
  [[nodiscard]] double final_rr() const;
  [[nodiscard]] const std::vector<double>& rr_history() const;
  /// The serial reference of this job's operator, config and PE count.
  [[nodiscard]] CgResult reference() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace solvers
