// Sparse SpMV-based Conjugate Gradient with deliberately imbalanced row
// partitions.
//
// Where cg.hpp applies the 5-point Laplacian over an even row split, this
// solver charges it as a per-rank 32-bit CSR SpMV and splits the rows by a
// WEIGHTED partition: rank 0 receives ~`imbalance`x the rows of the last
// rank (linear taper, largest-remainder rounding). That makes the
// per-iteration load irregular two ways:
//
//  * the SpMV cost is nnz-proportional (boundary rows carry shorter CSR
//    rows than interior ones), and
//  * the heavy low ranks finish their local phases late, so the global
//    dot-product reductions — which every rank must join — expose exactly
//    the straggler behaviour the CPU-Free model claims to absorb better
//    than a host-orchestrated loop (no per-iteration host round-trips to
//    amplify the wait).
//
// Both variants run through the generic exec::Program driver:
//  * (persistent, signaled_put, iteration_flags) — one persistent kernel
//    per device, device-side allreduce, device-side convergence test.
//  * (host_loop, staged_copy, host_barrier) — CPU-orchestrated loop, MPI
//    allreduce, host convergence test.
// Distributed runs are verified bit-for-bit against a serial reference
// reproducing the same accumulation and reduction order. The host numerics
// never store the matrix: the kernels apply the operator matrix-free, adding
// each row's terms in the CSR column order a device would stream them.
//
// This is the CSR instance of the one CG solver; matrix-free CG (cg.hpp) is
// its stencil instance over the balanced split, and CgCpufreeJob serves
// both.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "exec/policy.hpp"
#include "solvers/cg.hpp"
#include "vgpu/costmodel.hpp"

namespace solvers {

struct SparseCgConfig : exec::RunOptions {
  std::size_t nx = 64;
  std::size_t ny = 64;
  int max_iterations = 100;
  double tolerance = 1e-10;
  /// Target row-count ratio between the heaviest rank (rank 0) and the
  /// lightest (the last): weights taper linearly from `imbalance` to 1.
  /// 1.0 reproduces the even slab split; values < 1 are clamped to 1, and
  /// values that are not finite or exceed kMaxImbalance are rejected.
  double imbalance = 1.0;
};

/// Largest accepted `imbalance`. A rank's share is ny·weight / total weight
/// with weight <= imbalance, so this bound keeps ny·weight finite for every
/// size_t ny (1e288·2^64 ≈ 1.8e307 < DBL_MAX), and the weight total over
/// any int rank count too.
inline constexpr double kMaxImbalance = 1e288;

/// Weighted row split: rank r's weight tapers linearly from `imbalance`
/// (r = 0) to 1 (r = ranks-1); rows are apportioned by largest remainder
/// and every rank keeps at least two rows (stolen from the largest). At
/// imbalance 1 it is the even slab split: the first ny % ranks ranks take
/// one extra row. Throws std::invalid_argument naming `ranks` if it is
/// below 1, or `imbalance` if that is not finite or exceeds kMaxImbalance;
/// every CG entry point, matrix-free ones included, splits through here
/// first. Exposed for tests and the bench drivers' imbalance tagging.
[[nodiscard]] std::vector<std::size_t> split_rows_weighted(std::size_t ny,
                                                           int ranks,
                                                           double imbalance);

/// CSR nonzeros of the 5-point operator's grid rows [offset, offset+rows)
/// on an nx-by-ny grid (offset + rows <= ny), counted from the row geometry
/// alone. Sets each rank's simulated SpMV traffic and tags the partition
/// imbalance.
[[nodiscard]] std::size_t csr_rank_nnz(std::size_t rows, std::size_t offset,
                                       std::size_t nx, std::size_t ny);

/// Realized partition-imbalance factor: max per-rank CSR nonzeros / mean.
[[nodiscard]] double sparse_partition_imbalance(const SparseCgConfig& config,
                                                int ranks);

/// Why the weighted split of `config` over `ranks` does not fit 32-bit CSR
/// — some rank's (rows+2)*nx halo-extended layout or nonzero count exceeds
/// UINT32_MAX — naming nx, the rows and the rank; empty if it fits.
/// Computed from the row split alone, without overflowing. Every sparse CG
/// entry point throws std::invalid_argument with this message before
/// allocating anything problem-sized.
[[nodiscard]] std::string csr_overflow(const SparseCgConfig& config,
                                       int ranks);

/// One rank's rows of the 5-point operator. The simulated device holds them
/// as 32-bit CSR (12 bytes per nonzero, what the simulated SpMV charges)
/// with column indices into the rank's LOCAL (rows+2)*nx layout, halo rows
/// 0 and rows+1 included. The host kernels take vectors in that layout and
/// apply the operator matrix-free; each touches interior rows 1..rows only
/// and adds in grid-row order, the order the reference shares with every
/// run.
struct CsrSlice {
  std::size_t rows = 0;
  std::size_t offset = 0;  // first grid row owned
  std::size_t nx = 0;
  std::size_t ny = 0;   // grid rows: row ny-1 has no down neighbour
  std::size_t nnz = 0;  // csr_rank_nnz

  [[nodiscard]] std::size_t idx(std::size_t r, std::size_t j) const {
    return r * nx + j;
  }
  [[nodiscard]] double points() const {
    return static_cast<double>(rows) * static_cast<double>(nx);
  }

  /// q = A p, each row adding its CSR entries' terms in column order: up
  /// (-1), west (-1), diagonal (4), east (-1), down (-1), skipping the
  /// neighbours the grid boundary removes. p's halo rows supply the up and
  /// down terms across ranks. Returns dot(p, q).
  [[nodiscard]] double spmv_dot(std::span<const double> p,
                                std::span<double> q) const;
  /// r -= alpha q; returns dot(r, r) of the updated r.
  [[nodiscard]] double r_update_dot(double alpha, std::span<const double> q,
                                    std::span<double> r) const;
  [[nodiscard]] double dot(std::span<const double> a,
                           std::span<const double> b) const;
  /// p = r + beta p.
  void p_update(double beta, std::span<const double> r,
                std::span<double> p) const;
};

/// Every rank's slice of the operator, in rank order.
using SparseOperator = std::vector<CsrSlice>;

/// The operator of `config`'s grid under its weighted split over `ranks`:
/// each rank's row geometry and nonzero count, O(ranks) to build. Throws
/// std::invalid_argument with split_rows_weighted's or csr_overflow's
/// message.
[[nodiscard]] SparseOperator sparse_operator(const SparseCgConfig& config,
                                             int ranks);

/// Serial reference with the distributed variants' accumulation and
/// rank-ordered reduction, so `ranks`-device runs match bitwise. Computed
/// once per process for each (nx, ny, max_iterations, tolerance, imbalance,
/// ranks) in the memo cg_reference shares, which keys the operator too;
/// every call returns its own copy.
[[nodiscard]] CgResult sparse_cg_reference(const SparseCgConfig& config,
                                           int ranks);

/// Runs sparse CG under `plan` on a fresh machine. Supported compositions:
/// (persistent, signaled_put, iteration_flags) and (host_loop, staged_copy,
/// host_barrier); anything else throws std::invalid_argument naming the
/// offending policy component.
[[nodiscard]] CgResult run_sparse_cg(const vgpu::MachineSpec& spec,
                                     const SparseCgConfig& config,
                                     const exec::Plan& plan);

}  // namespace solvers
