// Stencil problem definitions: 2D 5-point and 3D 7-point Jacobi.
//
// Both problems are expressed in "slab" form for a 1D domain decomposition:
// the domain is a stack of S slabs of P points each (2D: slab = row of nx
// points, split across ny rows; 3D: slab = z-plane of nx*ny points, split
// along z as in §6.1.1). A problem provides the per-slab Jacobi update and
// the initial condition; the slab engine handles decomposition, halos and
// verification generically.
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace stencil {

/// 2D 5-point Jacobi: u'(x,y) = (u(x±1,y) + u(x,y±1)) / 4, Dirichlet edges.
struct Jacobi2D {
  static constexpr const char* kName = "jacobi2d";
  std::size_t nx = 64;  // row width (points per slab)
  std::size_t ny = 64;  // number of rows (slabs)

  [[nodiscard]] std::size_t slabs() const { return ny; }
  [[nodiscard]] std::size_t plane() const { return nx; }

  /// Streaming DRAM bytes per updated point (read + write, neighbour rows
  /// served from cache).
  [[nodiscard]] static double traffic_per_point() { return 16.0; }

  [[nodiscard]] double initial(std::size_t slab_g, std::size_t i) const {
    return static_cast<double>((slab_g * 131 + i * 17) % 97) / 97.0;
  }

  /// initial(slab_g, i) for every point i of `out`, without a modulo or a
  /// divide per point: the index steps by 17 mod 97 along the slab, and each
  /// value comes from a table of k / 97.0, the same doubles.
  void initial_slab(std::size_t slab_g, std::span<double> out) const {
    static const std::array<double, 97> kValues = [] {
      std::array<double, 97> v{};
      for (std::size_t k = 0; k < v.size(); ++k) {
        v[k] = static_cast<double>(k) / 97.0;
      }
      return v;
    }();
    std::size_t k = (slab_g * 131) % 97;
    for (double& x : out) {
      x = kValues[k];
      k = k + 17 < 97 ? k + 17 : k + 17 - 97;
    }
  }

  /// Updates interior points of slab `slab_g` in `dst` from the three source
  /// slabs. Dirichlet: global edge slabs and the first/last point of each
  /// slab are never written.
  void update_slab(std::span<const double> prev, std::span<const double> self,
                   std::span<const double> next, std::span<double> dst,
                   std::size_t slab_g) const {
    if (slab_g == 0 || slab_g + 1 >= ny) return;
    for (std::size_t j = 1; j + 1 < nx; ++j) {
      dst[j] = 0.25 * (prev[j] + next[j] + self[j - 1] + self[j + 1]);
    }
  }
};

/// 3D 7-point Jacobi partitioned across z (§6.1.1): slab = z-plane.
struct Jacobi3D {
  static constexpr const char* kName = "jacobi3d";
  std::size_t nx = 32;
  std::size_t ny = 32;
  std::size_t nz = 32;

  [[nodiscard]] std::size_t slabs() const { return nz; }
  [[nodiscard]] std::size_t plane() const { return nx * ny; }

  [[nodiscard]] static double traffic_per_point() { return 16.0; }

  [[nodiscard]] double initial(std::size_t slab_g, std::size_t i) const {
    const std::size_t y = i / nx;
    const std::size_t x = i % nx;
    return static_cast<double>((slab_g * 113 + y * 31 + x * 7) % 101) / 101.0;
  }

  /// initial(slab_g, i) for every point i of `out`.
  void initial_slab(std::size_t slab_g, std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = initial(slab_g, i);
  }

  void update_slab(std::span<const double> prev, std::span<const double> self,
                   std::span<const double> next, std::span<double> dst,
                   std::size_t slab_g) const {
    if (slab_g == 0 || slab_g + 1 >= nz) return;
    constexpr double kSixth = 1.0 / 6.0;
    for (std::size_t y = 1; y + 1 < ny; ++y) {
      for (std::size_t x = 1; x + 1 < nx; ++x) {
        const std::size_t i = y * nx + x;
        dst[i] = kSixth * (prev[i] + next[i] + self[i - 1] + self[i + 1] +
                           self[i - nx] + self[i + nx]);
      }
    }
  }
};

}  // namespace stencil
