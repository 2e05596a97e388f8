// Frontend program builders: the distributed Jacobi benchmarks of §6.2
// expressed as dacelite SDFGs, in both flavours of Listing 5.1/5.2:
//  * make_jacobi1d / make_jacobi2d build the MPI (baseline) SDFG;
//    apply_gpu_transform + apply_mpi_to_nvshmem + apply_nvshmem_arrays +
//    apply_persistent turn it into the CPU-Free SDFG (the §6.2.1 recipe).
//
// Jacobi1D: ring decomposition, each rank exchanges ONE element with each
// neighbour (single-element expansion path). Jacobi2D: rectangular process
// grid (px*py = ranks, px <= py — ranks not a multiple of 4 give the
// paper's unbalanced rectangular split), four neighbours, strided east/west
// columns (MPI_Type_vector vs nvshmem iput).
#pragma once

#include <utility>
#include <vector>

#include "dacelite/exec.hpp"
#include "dacelite/ir.hpp"

namespace dacelite {

/// Rectangular process grid: px*py == ranks, px <= py, px maximal. This and
/// both builders throw std::invalid_argument for ranks < 1; the builders
/// also for iterations < 1.
[[nodiscard]] std::pair<int, int> grid_dims(int ranks);

struct Jacobi1DProgram {
  Sdfg sdfg;
  std::size_t global_n = 0;
  std::size_t local_n = 0;
  int ranks = 1;

  /// Final values (array A) gathered into the global domain.
  [[nodiscard]] std::vector<double> gather(ProgramData& data) const;
  /// Serial reference after `iterations` steps.
  [[nodiscard]] std::vector<double> reference(int iterations) const;
};

/// Builds the MPI-based distributed 1D Jacobi (3-point) SDFG.
/// `global_n` must be divisible by `ranks`.
[[nodiscard]] Jacobi1DProgram make_jacobi1d(std::size_t global_n, int ranks,
                                            int iterations);

struct Jacobi2DProgram {
  Sdfg sdfg;
  std::size_t gx = 0, gy = 0;  // global domain (gx columns, gy rows)
  int ranks = 1;
  int px = 1, py = 1;        // process grid (px columns, py rows)
  std::size_t lnx = 0, lny = 0;  // local block size

  [[nodiscard]] std::vector<double> gather(ProgramData& data) const;
  /// Serial reference after `iterations` steps: stencil::Jacobi2D's, memoized
  /// per (gx, gy, iterations) whatever the process grid.
  [[nodiscard]] std::vector<double> reference(int iterations) const;
  /// gather(data) == reference(iterations), compared in place: nothing is
  /// gathered and the memoized reference is not copied.
  [[nodiscard]] bool matches_reference(ProgramData& data,
                                       int iterations) const;
};

/// Builds the MPI-based distributed 2D Jacobi (5-point) SDFG on a gx x gy
/// domain. gx must divide by the process-grid columns and gy by its rows.
/// `force_px` > 0 overrides the default grid_dims partition shape with a
/// `force_px` x (ranks/force_px) process grid (a tuner decision axis); it
/// must divide `ranks`.
[[nodiscard]] Jacobi2DProgram make_jacobi2d(std::size_t gx, std::size_t gy,
                                            int ranks, int iterations,
                                            int force_px = 0);

/// Square-domain convenience overload.
[[nodiscard]] inline Jacobi2DProgram make_jacobi2d(std::size_t g, int ranks,
                                                   int iterations) {
  return make_jacobi2d(g, g, ranks, iterations);
}

/// The §6.2.1 porting recipe: GPUTransform, then persistent fusion with
/// NVSHMEM nodes and symmetric storage. Mutates the SDFG in place. This is
/// Pipeline::apply of Recipe::cpu_free_default() — the canonical recipe.
void to_cpu_free(Sdfg& sdfg);

}  // namespace dacelite
