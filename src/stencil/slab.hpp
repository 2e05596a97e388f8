// Generic slab-decomposed stencil state: decomposition, symmetric double
// buffers, halo layout, functional updates, gathering and a serial reference.
//
// Layout per PE and parity: (max_rows + 2) slabs of `plane()` points.
//   slab 0            = top halo (values owned by the top neighbour)
//   slabs 1..rows     = this PE's interior slabs
//   slab rows+1       = bottom halo
// Both parities are fully initialized with the initial condition, so points
// that are never written (Dirichlet boundaries) remain correct in either
// buffer. Jacobi updates read parity (t-1)%2 and write parity t%2.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "stencil/config.hpp"
#include "stencil/problems.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace stencil {

/// Serial reference: `problem`'s update applied `iterations` times to the
/// undecomposed domain, as a global slabs-by-plane vector.
template <class Problem>
[[nodiscard]] std::vector<double> serial_reference(const Problem& problem,
                                                   int iterations) {
  const std::size_t s_count = problem.slabs();
  const std::size_t p = problem.plane();
  std::vector<double> g[2];
  g[0].resize(s_count * p);
  for (std::size_t s = 0; s < s_count; ++s) {
    problem.initial_slab(s, std::span<double>(g[0]).subspan(s * p, p));
  }
  g[1] = g[0];
  for (int t = 1; t <= iterations; ++t) {
    auto& src = g[(t - 1) & 1];
    auto& dst = g[t & 1];
    for (std::size_t s = 1; s + 1 < s_count; ++s) {
      problem.update_slab(
          std::span<const double>(src).subspan((s - 1) * p, p),
          std::span<const double>(src).subspan(s * p, p),
          std::span<const double>(src).subspan((s + 1) * p, p),
          std::span<double>(dst).subspan(s * p, p), s);
    }
  }
  return g[iterations & 1];
}

/// Jacobi2D's serial reference, computed once per process for each
/// (nx, ny, iterations); every call shares the one memoized vector. A job
/// server verifies many jobs of a few shapes against it.
[[nodiscard]] std::shared_ptr<const std::vector<double>> jacobi2d_reference(
    const Jacobi2D& problem, int iterations);

template <class Problem>
class SlabStencil {
 public:
  SlabStencil(vshmem::World& world, Problem problem, StencilConfig config)
      : world_(&world), prob_(problem), cfg_(config) {
    const int n = world.n_pes();
    if (prob_.slabs() < static_cast<std::size_t>(2 * n)) {
      throw std::invalid_argument(
          "SlabStencil: need at least two slabs per device");
    }
    const std::size_t base = prob_.slabs() / static_cast<std::size_t>(n);
    const std::size_t rem = prob_.slabs() % static_cast<std::size_t>(n);
    std::size_t off = 0;
    for (int pe = 0; pe < n; ++pe) {
      const std::size_t r = base + (static_cast<std::size_t>(pe) < rem ? 1 : 0);
      rows_.push_back(r);
      offset_.push_back(off);
      off += r;
      if (r > max_rows_) max_rows_ = r;
    }
    // Timing-only runs skip the numerics entirely (World::set_functional),
    // so they need no full-size domain storage.
    world.set_functional(cfg_.functional);
    const std::size_t per_pe =
        cfg_.functional ? (max_rows_ + 2) * prob_.plane() : 1;
    buf_[0] = world.alloc<double>(per_pe, "u0");
    buf_[1] = world.alloc<double>(per_pe, "u1");
    if (cfg_.functional) init();
  }

  [[nodiscard]] vshmem::World& world() noexcept { return *world_; }
  [[nodiscard]] vgpu::Machine& machine() noexcept { return world_->machine(); }
  [[nodiscard]] const Problem& problem() const noexcept { return prob_; }
  [[nodiscard]] const StencilConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int n_pes() const { return world_->n_pes(); }
  [[nodiscard]] std::size_t rows(int pe) const {
    return rows_.at(static_cast<std::size_t>(pe));
  }
  [[nodiscard]] std::size_t offset(int pe) const {
    return offset_.at(static_cast<std::size_t>(pe));
  }
  [[nodiscard]] std::size_t plane() const { return prob_.plane(); }
  [[nodiscard]] vshmem::Sym<double>& buffer(int parity) {
    return buf_[static_cast<std::size_t>(parity & 1)];
  }

  /// Span of local slab `r` (0 = top halo .. rows+1 = bottom halo).
  [[nodiscard]] std::span<double> slab(int pe, int parity, std::size_t r) {
    return buffer(parity).on(pe).subspan(r * plane(), plane());
  }
  [[nodiscard]] std::span<const double> slab(int pe, int parity,
                                             std::size_t r) const {
    return buf_[static_cast<std::size_t>(parity & 1)].on(pe).subspan(
        r * plane(), plane());
  }

  // --- Functional numerics ---------------------------------------------------

  /// Jacobi-updates local slabs [r0, r1) for iteration `iter` (1-based):
  /// reads parity (iter-1)%2, writes parity iter%2.
  void update_range(int pe, int iter, std::size_t r0, std::size_t r1) {
    const int src = (iter - 1) & 1;
    const int dst = iter & 1;
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t slab_g = offset(pe) + r - 1;
      prob_.update_slab(slab(pe, src, r - 1), slab(pe, src, r),
                        slab(pe, src, r + 1),
                        std::span<double>(slab(pe, dst, r)), slab_g);
    }
  }

  /// Functional-body factory for kernel compute phases: a no-op unless the
  /// run is functional with computation enabled.
  [[nodiscard]] std::function<void()> update_body(int pe, int iter,
                                                  std::size_t r0,
                                                  std::size_t r1) {
    if (!cfg_.functional || !cfg_.compute_enabled) return {};
    return [this, pe, iter, r0, r1] { update_range(pe, iter, r0, r1); };
  }

  /// Overwrites BOTH parities (interior and in-range halo slabs) from a
  /// global slabs-by-plane state vector — the checkpoint-restore entry
  /// point. A run started from load_state(reference(t0)) reproduces the
  /// unfailed run bitwise from iteration t0+1 on: Jacobi reads only the
  /// previous parity, so seeding both parities (like init() does) is safe,
  /// and halos are pre-filled exactly as the preset ready-flags expect.
  void load_state(const std::vector<double>& global) {
    if (!cfg_.functional) {
      throw std::logic_error("load_state() requires a functional run");
    }
    if (global.size() != prob_.slabs() * plane()) {
      throw std::invalid_argument("load_state: wrong state size");
    }
    for (int pe = 0; pe < n_pes(); ++pe) {
      for (std::size_t r = 0; r <= rows(pe) + 1; ++r) {
        const std::ptrdiff_t sg = static_cast<std::ptrdiff_t>(offset(pe)) +
                                  static_cast<std::ptrdiff_t>(r) - 1;
        if (sg < 0 || sg >= static_cast<std::ptrdiff_t>(prob_.slabs())) continue;
        const auto src = std::span<const double>(global).subspan(
            static_cast<std::size_t>(sg) * plane(), plane());
        for (int parity = 0; parity < 2; ++parity) {
          auto s = slab(pe, parity, r);
          std::copy(src.begin(), src.end(), s.begin());
        }
      }
    }
  }

  // --- Halo geometry ---------------------------------------------------------

  [[nodiscard]] double halo_bytes() const {
    return static_cast<double>(plane()) * 8.0;
  }
  /// Local slab index whose values are sent toward a neighbour.
  [[nodiscard]] std::size_t send_slab(int pe, bool to_top) const {
    return to_top ? 1 : rows(pe);
  }
  /// Halo slab index at the RECEIVING neighbour.
  [[nodiscard]] std::size_t recv_halo_slab(int neighbor_pe, bool to_top) const {
    return to_top ? rows(neighbor_pe) + 1 : 0;
  }
  /// Element offsets for symmetric puts.
  [[nodiscard]] std::size_t send_offset(int pe, bool to_top) const {
    return send_slab(pe, to_top) * plane();
  }
  [[nodiscard]] std::size_t recv_offset(int neighbor_pe, bool to_top) const {
    return recv_halo_slab(neighbor_pe, to_top) * plane();
  }

  /// Functional payload for a host-initiated halo copy of iteration `iter`'s
  /// results (parity iter%2) from `pe` toward its top/bottom neighbour.
  [[nodiscard]] std::function<void()> halo_deliver(int pe, bool to_top,
                                                   int iter) {
    if (!cfg_.functional) return {};
    const int neighbor = to_top ? pe - 1 : pe + 1;
    const int parity = iter & 1;
    return [this, pe, to_top, neighbor, parity] {
      auto src = slab(pe, parity, send_slab(pe, to_top));
      auto dst = slab(neighbor, parity, recv_halo_slab(neighbor, to_top));
      std::copy(src.begin(), src.end(), dst.begin());
    };
  }

  // --- Cost helpers ----------------------------------------------------------

  /// Streaming bytes for updating `nslabs` slabs (0 in no-compute mode).
  [[nodiscard]] double compute_bytes(double nslabs) const {
    if (!cfg_.compute_enabled) return 0.0;
    return nslabs * static_cast<double>(plane()) * Problem::traffic_per_point();
  }
  [[nodiscard]] double local_points(int pe) const {
    return static_cast<double>(rows(pe)) * static_cast<double>(plane());
  }

  // --- Verification ----------------------------------------------------------

  /// Gathers the distributed interior into a global slabs-by-plane vector.
  [[nodiscard]] std::vector<double> gather(int parity) const {
    if (!cfg_.functional) {
      throw std::logic_error("gather() requires a functional run");
    }
    std::vector<double> out(prob_.slabs() * plane());
    for (int pe = 0; pe < n_pes(); ++pe) {
      for (std::size_t r = 1; r <= rows(pe); ++r) {
        auto s = slab(pe, parity, r);
        std::copy(s.begin(), s.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(
                                    (offset(pe) + r - 1) * plane()));
      }
    }
    return out;
  }

  /// Serial reference: the same update applied to the undecomposed domain.
  [[nodiscard]] std::vector<double> reference(int iterations) const {
    if constexpr (std::is_same_v<Problem, Jacobi2D>) {
      return *jacobi2d_reference(prob_, iterations);
    } else {
      return serial_reference(prob_, iterations);
    }
  }

  /// gather(parity) == reference(iterations), compared slab by slab in
  /// place: nothing is gathered, and Jacobi2D's memoized reference is not
  /// copied.
  [[nodiscard]] bool matches_reference(int parity, int iterations) const {
    if constexpr (std::is_same_v<Problem, Jacobi2D>) {
      return matches(parity, *jacobi2d_reference(prob_, iterations));
    } else {
      return matches(parity, serial_reference(prob_, iterations));
    }
  }

 private:
  void init() {
    for (int pe = 0; pe < n_pes(); ++pe) {
      for (std::size_t r = 0; r <= rows(pe) + 1; ++r) {
        const std::ptrdiff_t sg = static_cast<std::ptrdiff_t>(offset(pe)) +
                                  static_cast<std::ptrdiff_t>(r) - 1;
        if (sg < 0 || sg >= static_cast<std::ptrdiff_t>(prob_.slabs())) continue;
        const std::span<double> s0 = slab(pe, 0, r);
        prob_.initial_slab(static_cast<std::size_t>(sg), s0);
        std::copy(s0.begin(), s0.end(), slab(pe, 1, r).begin());
      }
    }
  }

  /// Whether every PE's interior at `parity` equals its slabs of `global`.
  [[nodiscard]] bool matches(int parity,
                             std::span<const double> global) const {
    if (!cfg_.functional) {
      throw std::logic_error("matches() requires a functional run");
    }
    for (int pe = 0; pe < n_pes(); ++pe) {
      for (std::size_t r = 1; r <= rows(pe); ++r) {
        const auto s = slab(pe, parity, r);
        if (!std::equal(s.begin(), s.end(),
                        global.begin() + static_cast<std::ptrdiff_t>(
                                             (offset(pe) + r - 1) * plane()))) {
          return false;
        }
      }
    }
    return true;
  }

  vshmem::World* world_;
  Problem prob_;
  StencilConfig cfg_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> offset_;
  std::size_t max_rows_ = 0;
  vshmem::Sym<double> buf_[2];
};

}  // namespace stencil
