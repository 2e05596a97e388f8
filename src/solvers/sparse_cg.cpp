#include "solvers/sparse_cg.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpufree/halo.hpp"
#include "cpufree/launch.hpp"
#include "cpufree/metrics.hpp"
#include "exec/comm.hpp"
#include "exec/launch.hpp"
#include "exec/program.hpp"
#include "exec/sync.hpp"
#include "hostmpi/comm.hpp"
#include "sim/memo.hpp"
#include "sim/observe.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vshmem/world.hpp"

namespace solvers {

namespace {

// CSR SpMV traffic: value + column index per nonzero, one q write per row.
constexpr double kCsrBytesPerNnz = 12.0;
constexpr double kCsrBytesPerRow = 8.0;
// Dense phases (same constants as the matrix-free CG).
constexpr double kDotBytes = 16.0;
constexpr double kAxpy2Bytes = 48.0;
constexpr double kPUpdateBytes = 24.0;

double rhs_value(std::size_t gy, std::size_t gx) {
  return static_cast<double>((gy * 53 + gx * 29) % 83) / 83.0;
}

double spmv_bytes(const CsrSlice& s) {
  return static_cast<double>(s.nnz) * kCsrBytesPerNnz +
         s.points() * kCsrBytesPerRow;
}

/// `v` in the shortest form that reads back as the same double.
std::string shortest(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// Halo-extended vector length that fits every rank's slice.
std::size_t vector_size(const SparseOperator& op, std::size_t nx) {
  std::size_t rows = 0;
  for (const CsrSlice& s : op) rows = std::max(rows, s.rows);
  return (rows + 2) * nx;
}

void init_vectors(const CsrSlice& s, std::span<double> b,
                  std::span<double> r, std::span<double> p) {
  for (std::size_t row = 1; row <= s.rows; ++row) {
    const std::size_t gy = s.offset + row - 1;
    for (std::size_t j = 0; j < s.nx; ++j) {
      const double v = rhs_value(gy, j);
      b[s.idx(row, j)] = v;
      r[s.idx(row, j)] = v;  // x0 = 0 -> r0 = b
      p[s.idx(row, j)] = v;
    }
  }
}

/// Rank-ordered partial combine — the reduction order every variant and the
/// reference share.
double combine(const std::vector<double>& partials) {
  double acc = 0.0;
  for (double v : partials) acc += v;
  return acc;
}

}  // namespace

std::vector<std::size_t> split_rows_weighted(std::size_t ny, int ranks,
                                             double imbalance) {
  if (!std::isfinite(imbalance) || imbalance > kMaxImbalance) {
    throw std::invalid_argument("sparse CG: imbalance " +
                                shortest(imbalance) +
                                " must be finite and at most " +
                                shortest(kMaxImbalance));
  }
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::size_t> rows(n, 0);
  if (ranks <= 1) {
    rows.assign(1, ny);
    return rows;
  }
  const double ratio = std::max(1.0, imbalance);
  // Linear taper: weight(0) = ratio, weight(ranks-1) = 1.
  std::vector<double> weight(n);
  double total_w = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    weight[r] = ratio - (ratio - 1.0) * static_cast<double>(r) /
                            static_cast<double>(ranks - 1);
    total_w += weight[r];
  }
  // Largest-remainder apportionment (deterministic: ties go to lower rank).
  std::vector<double> frac(n);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double share = static_cast<double>(ny) * weight[r] / total_w;
    // Bound the cast by the rows still unassigned: at extreme ny and ratio
    // a share rounds up past them, even past the range of size_t.
    const std::size_t left = ny - assigned;
    rows[r] = share < static_cast<double>(left)
                  ? static_cast<std::size_t>(share)
                  : left;
    frac[r] = share - static_cast<double>(rows[r]);
    assigned += rows[r];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&frac](std::size_t a,
                                                       std::size_t b) {
    return frac[a] > frac[b];
  });
  for (std::size_t i = 0; assigned < ny; ++i, ++assigned) {
    ++rows[order[i % n]];
  }
  // Every rank keeps at least two rows (the halo protocol needs distinct
  // boundary rows), stolen from the current largest.
  for (std::size_t r = 0; r < n; ++r) {
    while (rows[r] < 2) {
      const std::size_t big = static_cast<std::size_t>(
          std::max_element(rows.begin(), rows.end()) - rows.begin());
      if (rows[big] <= 2) break;  // ny too small; validated upstream
      --rows[big];
      ++rows[r];
    }
  }
  return rows;
}

std::size_t csr_rank_nnz(std::size_t rows, std::size_t offset,
                         std::size_t nx, std::size_t ny) {
  if (rows == 0 || nx == 0) return 0;
  // Per grid row: a diagonal per point plus a west/east pair between
  // neighbouring points; per point, an up and a down coupling unless the
  // row is the grid's first or last.
  const std::size_t up = rows - (offset == 0 ? 1 : 0);
  const std::size_t down = rows - (offset + rows >= ny ? 1 : 0);
  return rows * (3 * nx - 2) + (up + down) * nx;
}

double sparse_partition_imbalance(const SparseCgConfig& config, int ranks) {
  const auto rows = split_rows_weighted(config.ny, ranks, config.imbalance);
  double total = 0.0, peak = 0.0;
  std::size_t off = 0;
  for (std::size_t r : rows) {
    const auto w =
        static_cast<double>(csr_rank_nnz(r, off, config.nx, config.ny));
    total += w;
    peak = std::max(peak, w);
    off += r;
  }
  const double mean = total / static_cast<double>(ranks);
  return mean > 0.0 ? peak / mean : 1.0;
}

std::string csr_overflow(const SparseCgConfig& config, int ranks) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  // (rows+2)*nx > kMax without forming the product: rows+2 > kMax/nx. Once
  // the layout fits, nonzeros are at most 5*kMax, so counting them cannot
  // wrap either.
  const std::size_t cap = config.nx == 0 ? kMax : kMax / config.nx;
  const auto rows = split_rows_weighted(config.ny, ranks, config.imbalance);
  std::size_t off = 0;
  for (std::size_t rank = 0; rank < rows.size(); ++rank) {
    if (cap < 2 || rows[rank] > cap - 2 ||
        csr_rank_nnz(rows[rank], off, config.nx, config.ny) > kMax) {
      return "sparse CG: rank " + std::to_string(rank) + "'s slice of " +
             std::to_string(rows[rank]) + " rows x nx " +
             std::to_string(config.nx) +
             " overflows 32-bit CSR indices (layout or nonzeros above " +
             std::to_string(kMax) + ")";
    }
    off += rows[rank];
  }
  return {};
}

SparseOperator sparse_operator(const SparseCgConfig& config, int ranks) {
  if (std::string why = csr_overflow(config, ranks); !why.empty()) {
    throw std::invalid_argument(why);
  }
  SparseOperator op;
  std::size_t off = 0;
  for (std::size_t rows :
       split_rows_weighted(config.ny, ranks, config.imbalance)) {
    op.push_back({rows, off, config.nx, config.ny,
                  csr_rank_nnz(rows, off, config.nx, config.ny)});
    off += rows;
  }
  return op;
}

// The kernels walk interior rows 1..rows of the halo-extended layout, which
// is the flat index range [nx, (rows+1)*nx), and add in that order.

double CsrSlice::spmv_dot(std::span<const double> p,
                          std::span<double> q) const {
  double pq = 0.0;
  for (std::size_t r = 1; r <= rows; ++r) {
    const std::size_t gy = offset + r - 1;
    const bool has_up = gy > 0;
    const bool has_down = gy + 1 < ny;
    const double* up = p.data() + (r - 1) * nx;
    const double* mid = up + nx;
    const double* down = mid + nx;
    double* qr = q.data() + r * nx;
    // One CSR row's terms in column order. Multiplying by -1 and 4 is exact,
    // so q and the partial have the bits a stored matrix would give.
    auto point = [&](std::size_t j) {
      double acc = 0.0;
      if (has_up) acc += -1.0 * up[j];
      if (j > 0) acc += -1.0 * mid[j - 1];
      acc += 4.0 * mid[j];
      if (j + 1 < nx) acc += -1.0 * mid[j + 1];
      if (has_down) acc += -1.0 * down[j];
      qr[j] = acc;
      pq += mid[j] * acc;
    };
    if (!has_up || !has_down || nx < 3) {
      for (std::size_t j = 0; j < nx; ++j) point(j);
      continue;
    }
    // Interior points have all five neighbours: same terms, no branches.
    point(0);
    for (std::size_t j = 1; j + 1 < nx; ++j) {
      double acc = 0.0;
      acc += -1.0 * up[j];
      acc += -1.0 * mid[j - 1];
      acc += 4.0 * mid[j];
      acc += -1.0 * mid[j + 1];
      acc += -1.0 * down[j];
      qr[j] = acc;
      pq += mid[j] * acc;
    }
    point(nx - 1);
  }
  return pq;
}

double CsrSlice::axpy2_dot(double alpha, std::span<const double> p,
                           std::span<const double> q, std::span<double> x,
                           std::span<double> r) const {
  double rr = 0.0;
  for (std::size_t i = nx; i < (rows + 1) * nx; ++i) {
    x[i] += alpha * p[i];
    r[i] -= alpha * q[i];
    rr += r[i] * r[i];
  }
  return rr;
}

double CsrSlice::dot(std::span<const double> a,
                     std::span<const double> b) const {
  double acc = 0.0;
  for (std::size_t i = nx; i < (rows + 1) * nx; ++i) acc += a[i] * b[i];
  return acc;
}

void CsrSlice::p_update(double beta, std::span<const double> r,
                        std::span<double> p) const {
  for (std::size_t i = nx; i < (rows + 1) * nx; ++i) p[i] = r[i] + beta * p[i];
}

namespace {

/// sparse_cg_reference without the memo.
CgResult reference_uncached(const SparseCgConfig& cfg, int ranks) {
  const SparseOperator states = sparse_operator(cfg, ranks);
  const int n = ranks;
  std::vector<std::vector<double>> b(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> x(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> r(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> p(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> q(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    const auto sz = (states[static_cast<std::size_t>(d)].rows + 2) * cfg.nx;
    b[static_cast<std::size_t>(d)].assign(sz, 0.0);
    x[static_cast<std::size_t>(d)].assign(sz, 0.0);
    r[static_cast<std::size_t>(d)].assign(sz, 0.0);
    p[static_cast<std::size_t>(d)].assign(sz, 0.0);
    q[static_cast<std::size_t>(d)].assign(sz, 0.0);
    init_vectors(states[static_cast<std::size_t>(d)],
                 b[static_cast<std::size_t>(d)], r[static_cast<std::size_t>(d)],
                 p[static_cast<std::size_t>(d)]);
  }
  auto exchange_halos = [&] {
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      if (d > 0) {
        const auto& up = states[static_cast<std::size_t>(d - 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p[static_cast<std::size_t>(d)][s.idx(0, j)] =
              p[static_cast<std::size_t>(d - 1)][up.idx(up.rows, j)];
        }
      }
      if (d + 1 < n) {
        const auto& down = states[static_cast<std::size_t>(d + 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p[static_cast<std::size_t>(d)][s.idx(s.rows + 1, j)] =
              p[static_cast<std::size_t>(d + 1)][down.idx(1, j)];
        }
      }
    }
  };
  auto reduce = [&](auto&& fn) {
    std::vector<double> partials;
    for (int d = 0; d < n; ++d) partials.push_back(fn(d));
    return combine(partials);
  };

  CgResult res;
  double rz = reduce([&](int d) {
    const auto& s = states[static_cast<std::size_t>(d)];
    return s.dot(r[static_cast<std::size_t>(d)], r[static_cast<std::size_t>(d)]);
  });
  for (int t = 1; t <= cfg.max_iterations; ++t) {
    exchange_halos();
    const double pq = reduce([&](int d) {
      const auto i = static_cast<std::size_t>(d);
      return states[i].spmv_dot(p[i], q[i]);
    });
    const double alpha = rz / pq;
    const double rr = reduce([&](int d) {
      const auto i = static_cast<std::size_t>(d);
      return states[i].axpy2_dot(alpha, p[i], q[i], x[i], r[i]);
    });
    res.rr_history.push_back(rr);
    res.iterations_run = t;
    res.final_rr = rr;
    if (rr < cfg.tolerance) break;
    const double beta = rr / rz;
    rz = rr;
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      s.p_update(beta, r[static_cast<std::size_t>(d)],
                 p[static_cast<std::size_t>(d)]);
    }
  }
  return res;
}

/// Exactly the config fields the reference reads, plus the rank count.
/// Doubles are keyed by bit pattern so the key order stays total.
struct ReferenceKey {
  std::size_t nx;
  std::size_t ny;
  int max_iterations;
  std::uint64_t tolerance;
  std::uint64_t imbalance;
  int ranks;

  auto operator<=>(const ReferenceKey&) const = default;
};

}  // namespace

CgResult sparse_cg_reference(const SparseCgConfig& cfg, int ranks) {
  static sim::Memo<ReferenceKey, CgResult> memo;
  const ReferenceKey key{cfg.nx,
                         cfg.ny,
                         cfg.max_iterations,
                         std::bit_cast<std::uint64_t>(cfg.tolerance),
                         std::bit_cast<std::uint64_t>(cfg.imbalance),
                         ranks};
  return memo.get(key, [&key] {
    // Rebuilt from the key alone: a field the reference reads but the key
    // lacks takes its default here, so verification fails loudly instead of
    // hitting a stale entry.
    SparseCgConfig keyed;
    keyed.nx = key.nx;
    keyed.ny = key.ny;
    keyed.max_iterations = key.max_iterations;
    keyed.tolerance = std::bit_cast<double>(key.tolerance);
    keyed.imbalance = std::bit_cast<double>(key.imbalance);
    return reference_uncached(keyed, key.ranks);
  });
}

// --- Shared distributed core --------------------------------------------------

namespace {

/// Everything the distributed bodies dereference, heap-held so the
/// externally-driven job can outlive the building frame. Signal layout as
/// cg.cpp: reduction flags channel*n + peer, halo flags 2n/2n+1 (preset 1).
struct SparseCgCore {
  SparseCgConfig cfg;
  vshmem::World* world = nullptr;
  int n = 0;
  int persistent_blocks = 0;
  SparseOperator op;
  vshmem::Sym<double> p, x, r, q, b, slots0, slots1;
  std::unique_ptr<vshmem::SignalSet> sig;
  std::size_t top_halo = 0;
  std::size_t bottom_halo = 0;
  double rz0 = 1.0;
  // Shared result cells (PE 0 publishes).
  std::shared_ptr<std::vector<double>> history =
      std::make_shared<std::vector<double>>();
  std::shared_ptr<int> iterations_run = std::make_shared<int>(0);
  std::shared_ptr<double> final_rr = std::make_shared<double>(0.0);
};

std::unique_ptr<SparseCgCore> make_sparse_core(vshmem::World& world,
                                               const vgpu::MachineSpec& spec,
                                               const SparseCgConfig& cfg) {
  auto core = std::make_unique<SparseCgCore>();
  core->cfg = cfg;
  core->world = &world;
  const int n = world.n_pes();
  core->n = n;
  core->persistent_blocks = exec::resolve_persistent_blocks(
      cfg.persistent_blocks, spec, cfg.threads_per_block);
  core->op = sparse_operator(cfg, n);
  const SparseOperator& states = core->op;

  const std::size_t vec_size = cfg.functional ? vector_size(states, cfg.nx) : 1;
  core->p = world.alloc<double>(vec_size, "sp_p");
  core->x = world.alloc<double>(vec_size, "sp_x");
  core->r = world.alloc<double>(vec_size, "sp_r");
  core->q = world.alloc<double>(vec_size, "sp_q");
  core->b = world.alloc<double>(vec_size, "sp_b");
  core->slots0 = world.alloc<double>(static_cast<std::size_t>(n), "sp_pq");
  core->slots1 = world.alloc<double>(static_cast<std::size_t>(n), "sp_rr");
  core->sig = world.alloc_signals(2 * static_cast<std::size_t>(n) + 2);
  core->top_halo = 2 * static_cast<std::size_t>(n);
  core->bottom_halo = core->top_halo + 1;
  for (int pe = 0; pe < n; ++pe) {
    core->sig->at(pe, core->top_halo).set(1);
    core->sig->at(pe, core->bottom_halo).set(1);
  }

  vshmem::Sym<double>& p = core->p;
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      init_vectors(states[static_cast<std::size_t>(d)], core->b.on(d),
                   core->r.on(d), p.on(d));
    }
    // Iteration 1's halo flags are pre-signaled: the initial neighbour
    // boundaries must already be in the halos.
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      if (d > 0) {
        const auto& up = states[static_cast<std::size_t>(d - 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p.on(d)[s.idx(0, j)] = p.on(d - 1)[up.idx(up.rows, j)];
        }
      }
      if (d + 1 < n) {
        const auto& down = states[static_cast<std::size_t>(d + 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p.on(d)[s.idx(s.rows + 1, j)] = p.on(d + 1)[down.idx(1, j)];
        }
      }
    }
  }

  std::vector<double> rz0_partials;
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      rz0_partials.push_back(states[static_cast<std::size_t>(d)].dot(
          core->r.on(d), core->r.on(d)));
    }
  }
  core->rz0 = cfg.functional ? combine(rz0_partials) : 1.0;
  return core;
}

/// PE `dev`'s persistent body under the generic driver's join. One comm
/// group per device; the join's comm_end (grid sync) closes each iteration.
exec::ProgramGroups build_sparse_groups(SparseCgCore& core, int dev,
                                        const exec::IterationJoin& join) {
  vshmem::World& world = *core.world;
  const SparseCgConfig& cfg = core.cfg;
  const int n = core.n;
  const SparseOperator& states = core.op;
  vshmem::Sym<double>& p = core.p;
  vshmem::Sym<double>& x = core.x;
  vshmem::Sym<double>& r = core.r;
  vshmem::Sym<double>& q = core.q;
  vshmem::Sym<double>& slots0 = core.slots0;
  vshmem::Sym<double>& slots1 = core.slots1;
  const std::size_t kTopHalo = core.top_halo;
  const std::size_t kBottomHalo = core.bottom_halo;
  const double rz0 = core.rz0;
  auto history = core.history;
  auto iterations_run = core.iterations_run;
  auto final_rr = core.final_rr;

  const CsrSlice* st = &states[static_cast<std::size_t>(dev)];
  const std::size_t up_rows =
      dev > 0 ? states[static_cast<std::size_t>(dev - 1)].rows : 0;
  auto body = [&world, &cfg, st, dev, n, up_rows, &p, &x, &r, &q, &slots0,
               &slots1, sigp = core.sig.get(), kTopHalo, kBottomHalo, rz0,
               history, iterations_run, final_rr,
               comm_end = join.comm_end](vgpu::KernelCtx& k) -> sim::Task {
    const double pts = st->points();
    const std::size_t halo_count = st->nx;
    double rz = rz0;

    cpufree::IterationProtocol proto(world, *sigp);
    auto sum_slots = [&](vshmem::Sym<double>& slots) {
      double acc = 0.0;
      for (int pe = 0; pe < n; ++pe) {
        acc += slots.on(dev)[static_cast<std::size_t>(pe)];
      }
      return acc;
    };

    for (int t = 1; t <= cfg.max_iterations; ++t) {
      if (dev > 0) {
        co_await proto.wait_iteration(k, kTopHalo, t);
      }
      if (dev + 1 < n) {
        co_await proto.wait_iteration(k, kBottomHalo, t);
      }
      if (k.engine().observer() != nullptr) {
        if (dev > 0) {
          k.obs_access(sim::MemRange::of(p.on(dev), st->idx(0, 0), st->nx),
                       /*is_write=*/false, "p_halo_read");
        }
        if (dev + 1 < n) {
          k.obs_access(
              sim::MemRange::of(p.on(dev), st->idx(st->rows + 1, 0), st->nx),
              /*is_write=*/false, "p_halo_read");
        }
      }
      // The fused host kernels compute each dot with the pass before it;
      // the dot phases keep charging their own device time, with no body.
      double pq_local = 0.0;
      std::function<void()> f_spmv;
      if (cfg.functional) {
        f_spmv = [st, &p, &q, dev, &pq_local] {
          pq_local = st->spmv_dot(p.on(dev), q.on(dev));
        };
      }
      // The nnz-proportional cost is where the weighted partition bites:
      // heavy ranks stream more CSR entries every iteration.
      co_await k.compute(spmv_bytes(*st), 1.0, "spmv_csr", std::move(f_spmv));
      co_await k.compute(pts * kDotBytes, 1.0, "dot_pq", {});
      CO_AWAIT(exec::allreduce_put_wait(world, k, slots0, *sigp,
                                        /*flag_base=*/0, dev, n, t, pq_local,
                                        cfg.functional));
      const double pq = cfg.functional ? sum_slots(slots0) : 1.0;
      const double alpha = cfg.functional ? rz / pq : 0.0;

      double rr_local = 0.0;
      std::function<void()> f_axpy;
      if (cfg.functional) {
        f_axpy = [st, alpha, &p, &q, &x, &r, dev, &rr_local] {
          rr_local =
              st->axpy2_dot(alpha, p.on(dev), q.on(dev), x.on(dev), r.on(dev));
        };
      }
      co_await k.compute(pts * kAxpy2Bytes, 1.0, "axpy", std::move(f_axpy));
      co_await k.compute(pts * kDotBytes, 1.0, "dot_rr", {});
      CO_AWAIT(exec::allreduce_put_wait(
          world, k, slots1, *sigp,
          /*flag_base=*/static_cast<std::size_t>(n), dev, n, t, rr_local,
          cfg.functional));
      const double rr = cfg.functional ? sum_slots(slots1) : 1.0;

      if (dev == 0) {
        if (cfg.functional) history->push_back(rr);
        *iterations_run = t;
        *final_rr = rr;
      }
      // Device-side convergence: all PEs computed the same rr.
      if (cfg.functional && rr < cfg.tolerance) co_return;

      const double beta = cfg.functional ? rr / rz : 0.0;
      if (cfg.functional) rz = rr;
      std::function<void()> f_pup;
      if (cfg.functional) {
        f_pup = [st, beta, &r, &p, dev] {
          st->p_update(beta, r.on(dev), p.on(dev));
        };
      }
      co_await k.compute(pts * kPUpdateBytes, 1.0, "p_update",
                         std::move(f_pup));

      // Publish next iteration's p boundary rows.
      if (dev > 0) {
        co_await proto.put_and_signal(k, p, st->idx(1, 0),
                                      (up_rows + 1) * st->nx, halo_count,
                                      kBottomHalo, t + 1, dev - 1);
      }
      if (dev + 1 < n) {
        co_await proto.put_and_signal(k, p, st->idx(st->rows, 0),
                                      st->idx(0, 0), halo_count, kTopHalo,
                                      t + 1, dev + 1);
      }
      CO_AWAIT(comm_end(k, /*lead=*/true, t));
    }
  };

  exec::ProgramGroups pg;
  pg.comm.push_back(vgpu::BlockGroup{"sparse_cg", core.persistent_blocks,
                                     std::move(body)});
  return pg;
}

/// The persistent composition as an exec::Program (groups hook only; the
/// core owns its SignalSet, so Program::signals stays null).
exec::Program make_sparse_program(SparseCgCore& core) {
  exec::Program prog;
  prog.machine = &core.world->machine();
  prog.world = core.world;
  prog.n_pes = core.n;
  prog.groups = [&core](int dev, vshmem::SignalSet*,
                        const exec::IterationJoin& join) {
    return build_sparse_groups(core, dev, join);
  };
  return prog;
}

[[noreturn]] void throw_unsupported(const exec::Plan& plan) {
  if (!exec::valid(plan)) {
    throw std::invalid_argument(
        exec::invalid_plan_message("run_sparse_cg", plan));
  }
  std::string msg = "run_sparse_cg: launch: sparse CG implements the "
                    "persistent and host_loop/staged_copy compositions (got ";
  msg += exec::name(plan.launch);
  msg += '/';
  msg += exec::name(plan.comm);
  msg += ')';
  throw std::invalid_argument(msg);
}

CgResult finish_run(vgpu::Machine& machine, int iters_run, double final_rr,
                    const std::vector<double>& history) {
  CgResult res;
  res.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                     iters_run);
  cpufree::apply_fault_stats(res.metrics, machine.faults().stats());
  res.iterations_run = iters_run;
  res.final_rr = final_rr;
  res.rr_history = history;
  return res;
}

}  // namespace

CgResult run_sparse_cg(const vgpu::MachineSpec& spec,
                       const SparseCgConfig& cfg, const exec::Plan& plan) {
  const bool persistent = plan.launch == exec::LaunchPolicy::kPersistent &&
                          exec::valid(plan);
  const bool host_staged = plan.launch == exec::LaunchPolicy::kHostLoop &&
                           plan.comm == exec::CommPolicy::kStagedCopy &&
                           exec::valid(plan);
  if (!persistent && !host_staged) throw_unsupported(plan);

  vgpu::Machine machine(spec);
  machine.engine().set_observer(cfg.observer);
  vshmem::World world(machine);
  world.set_functional(cfg.functional);
  machine.trace().set_enabled(cfg.trace);

  if (persistent) {
    auto core = make_sparse_core(world, spec, cfg);
    const exec::Program prog = make_sparse_program(*core);
    exec::ProgramExecParams prm;
    prm.iterations = cfg.max_iterations;
    prm.threads_per_block = cfg.threads_per_block;
    exec::run_program(prog, plan, prm);
    return finish_run(machine, *core->iterations_run, *core->final_rr,
                      *core->history);
  }

  // --- Baseline CPU-controlled loop through the generic host driver ---
  hostmpi::Comm comm(machine);
  const int n = machine.num_devices();
  const SparseOperator states = sparse_operator(cfg, n);
  const std::size_t vec_size = cfg.functional ? vector_size(states, cfg.nx) : 1;
  vshmem::Sym<double> p = world.alloc<double>(vec_size, "sp_p");
  vshmem::Sym<double> x = world.alloc<double>(vec_size, "sp_x");
  vshmem::Sym<double> r = world.alloc<double>(vec_size, "sp_r");
  vshmem::Sym<double> q = world.alloc<double>(vec_size, "sp_q");
  vshmem::Sym<double> b = world.alloc<double>(vec_size, "sp_b");
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      init_vectors(states[static_cast<std::size_t>(d)], b.on(d), r.on(d),
                   p.on(d));
    }
  }
  std::vector<double> rz0_partials;
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      rz0_partials.push_back(
          states[static_cast<std::size_t>(d)].dot(r.on(d), r.on(d)));
    }
  }
  const double rz0 = cfg.functional ? combine(rz0_partials) : 1.0;

  auto history = std::make_shared<std::vector<double>>();
  auto iterations_run = std::make_shared<int>(0);
  auto final_rr = std::make_shared<double>(0.0);
  auto pq_box = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(n), 0.0);
  auto rr_box = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(n), 0.0);
  std::vector<double> rz_state(static_cast<std::size_t>(n), rz0);
  std::vector<std::shared_ptr<double>> pq_partials, rr_partials;
  for (int d = 0; d < n; ++d) {
    pq_partials.push_back(std::make_shared<double>(0.0));
    rr_partials.push_back(std::make_shared<double>(0.0));
  }
  std::vector<char> converged(static_cast<std::size_t>(n), 0);

  exec::Program prog;
  prog.machine = &machine;
  prog.world = &world;
  prog.n_pes = n;
  prog.streams_per_device = 1;
  prog.stop = [&converged](int dev) {
    return converged[static_cast<std::size_t>(dev)] != 0;
  };
  prog.host_step = [&](vgpu::HostCtx& h, int dev, int t,
                       std::span<vgpu::Stream* const> streams,
                       vshmem::SignalSet*) -> sim::Task {
    vgpu::Stream& stream = *streams[0];
    const CsrSlice* st = &states[static_cast<std::size_t>(dev)];
    const double pts = st->points();
    const int blocks =
        std::max(1, static_cast<int>(pts / cfg.threads_per_block) + 1);
    vgpu::LaunchConfig lc;
    lc.threads_per_block = cfg.threads_per_block;
    lc.name = "sparse_cg_phase";
    auto pq_partial = pq_partials[static_cast<std::size_t>(dev)];
    auto rr_partial = rr_partials[static_cast<std::size_t>(dev)];
    vgpu::Stream* const step_streams[] = {&stream};

    exec::HaloRangeFn p_ranges;
    if (machine.engine().observer() != nullptr) {
      p_ranges = [&states, &p, st,
                  dev](bool to_top) -> std::pair<sim::MemRange,
                                                 sim::MemRange> {
        if (to_top) {
          const CsrSlice* up = &states[static_cast<std::size_t>(dev - 1)];
          return {sim::MemRange::of(p.on(dev), st->idx(1, 0), st->nx),
                  sim::MemRange::of(p.on(dev - 1), up->idx(up->rows + 1, 0),
                                    st->nx)};
        }
        const CsrSlice* down = &states[static_cast<std::size_t>(dev + 1)];
        return {sim::MemRange::of(p.on(dev), st->idx(st->rows, 0), st->nx),
                sim::MemRange::of(p.on(dev + 1), down->idx(0, 0), st->nx)};
      };
    }
    CO_AWAIT(exec::staged_halo_exchange(
        h, stream, dev, n, static_cast<double>(st->nx) * 8.0,
        [&states, &p, st, dev,
         functional = cfg.functional](bool to_top) -> std::function<void()> {
          if (!functional) return {};
          if (to_top) {
            const CsrSlice* up = &states[static_cast<std::size_t>(dev - 1)];
            return [&p, st, up, dev] {
              auto dst = p.on(dev - 1);
              auto src = p.on(dev);
              for (std::size_t j = 0; j < st->nx; ++j) {
                dst[up->idx(up->rows + 1, j)] = src[st->idx(1, j)];
              }
            };
          }
          const CsrSlice* down = &states[static_cast<std::size_t>(dev + 1)];
          return [&p, st, down, dev] {
            auto dst = p.on(dev + 1);
            auto src = p.on(dev);
            for (std::size_t j = 0; j < st->nx; ++j) {
              dst[down->idx(0, j)] = src[st->idx(st->rows, j)];
            }
          };
        },
        p_ranges));
    co_await exec::end_host_step(h, exec::SyncPolicy::kHostBarrier,
                                 step_streams);

    // CSR SpMV + dot(p, q); the host needs the scalar: stream sync after.
    std::function<void()> f1;
    if (cfg.functional) {
      f1 = [st, &p, &q, dev, pq_partial] {
        *pq_partial = st->spmv_dot(p.on(dev), q.on(dev));
      };
    }
    {
      auto body = [st, pts, f = std::move(f1), &p, dev,
                   n](vgpu::KernelCtx& k) -> sim::Task {
        if (k.engine().observer() != nullptr) {
          if (dev > 0) {
            k.obs_access(sim::MemRange::of(p.on(dev), st->idx(0, 0), st->nx),
                         /*is_write=*/false, "p_halo_read");
          }
          if (dev + 1 < n) {
            k.obs_access(
                sim::MemRange::of(p.on(dev), st->idx(st->rows + 1, 0),
                                  st->nx),
                /*is_write=*/false, "p_halo_read");
          }
        }
        std::function<void()> fn = f;
        co_await k.compute(spmv_bytes(*st) + pts * kDotBytes, 1.0,
                           "spmv_csr+dot", std::move(fn));
      };
      std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
      CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
    }
    CO_AWAIT(h.sync_stream(stream));
    co_await h.api("memcpy_dtoh_scalar");
    CO_AWAIT(exec::host_allreduce(comm, h, dev, n, /*tag=*/0, *pq_partial,
                                  pq_box, cfg.functional));
    const double pq = cfg.functional ? combine(*pq_box) : 1.0;
    const double alpha =
        cfg.functional ? rz_state[static_cast<std::size_t>(dev)] / pq : 0.0;

    std::function<void()> f2;
    if (cfg.functional) {
      f2 = [st, alpha, &p, &q, &x, &r, dev, rr_partial] {
        *rr_partial =
            st->axpy2_dot(alpha, p.on(dev), q.on(dev), x.on(dev), r.on(dev));
      };
    }
    {
      auto body = [pts, f = std::move(f2)](vgpu::KernelCtx& k) -> sim::Task {
        std::function<void()> fn = f;
        co_await k.compute(pts * (kAxpy2Bytes + kDotBytes), 1.0, "axpy+dot",
                           std::move(fn));
      };
      std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
      CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
    }
    CO_AWAIT(h.sync_stream(stream));
    co_await h.api("memcpy_dtoh_scalar");
    CO_AWAIT(exec::host_allreduce(comm, h, dev, n, /*tag=*/1, *rr_partial,
                                  rr_box, cfg.functional));
    const double rr = cfg.functional ? combine(*rr_box) : 1.0;

    if (dev == 0) {
      if (cfg.functional) history->push_back(rr);
      *iterations_run = t;
      *final_rr = rr;
    }
    if (cfg.functional && rr < cfg.tolerance) {
      converged[static_cast<std::size_t>(dev)] = 1;
      co_return;
    }

    const double beta =
        cfg.functional ? rr / rz_state[static_cast<std::size_t>(dev)] : 0.0;
    if (cfg.functional) rz_state[static_cast<std::size_t>(dev)] = rr;
    std::function<void()> f3;
    if (cfg.functional) {
      f3 = [st, beta, &r, &p, dev] {
        st->p_update(beta, r.on(dev), p.on(dev));
      };
    }
    {
      auto body = [pts, f = std::move(f3)](vgpu::KernelCtx& k) -> sim::Task {
        std::function<void()> fn = f;
        co_await k.compute(pts * kPUpdateBytes, 1.0, "p_update",
                           std::move(fn));
      };
      std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
      CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
    }
    co_await exec::end_host_step(h, exec::SyncPolicy::kHostBarrier,
                                 step_streams);
  };

  exec::ProgramExecParams prm;
  prm.iterations = cfg.max_iterations;
  prm.threads_per_block = cfg.threads_per_block;
  exec::run_program(prog, plan, prm);
  return finish_run(machine, *iterations_run, *final_rr, *history);
}

// --- Externally-driven sparse CG job (multi-tenant serve) ---------------------

struct SparseCgCpufreeJob::Impl {
  vgpu::Machine* machine = nullptr;
  std::unique_ptr<SparseCgCore> core;
  exec::Program program;
  exec::Plan plan;
  exec::ProgramExecParams params;
};

SparseCgCpufreeJob::SparseCgCpufreeJob(vgpu::Machine& machine,
                                       vshmem::World& world,
                                       const SparseCgConfig& config)
    : impl_(std::make_unique<Impl>()) {
  impl_->machine = &machine;
  impl_->core = make_sparse_core(world, machine.spec(), config);
  impl_->plan =
      exec::Plan{exec::LaunchPolicy::kPersistent, exec::CommPolicy::kSignaledPut,
                 exec::SyncPolicy::kIterationFlags, "sparse_cg_cpufree"};
  impl_->program = make_sparse_program(*impl_->core);
  impl_->params.iterations = config.max_iterations;
  impl_->params.threads_per_block = config.threads_per_block;
  impl_->params.job_map = config.job_map;
  impl_->params.job_label = config.job_label;
}

SparseCgCpufreeJob::~SparseCgCpufreeJob() = default;

sim::Task SparseCgCpufreeJob::task() {
  // Members, not temporaries: the lazy coroutine keeps its const& parameters
  // alive only as references.
  return exec::run_program_persistent_task(impl_->program, impl_->plan,
                                           impl_->params);
}

int SparseCgCpufreeJob::iterations_run() const {
  return *impl_->core->iterations_run;
}

double SparseCgCpufreeJob::final_rr() const { return *impl_->core->final_rr; }

const std::vector<double>& SparseCgCpufreeJob::rr_history() const {
  return *impl_->core->history;
}

double SparseCgCpufreeJob::imbalance() const {
  return sparse_partition_imbalance(impl_->core->cfg, impl_->core->n);
}

}  // namespace solvers
