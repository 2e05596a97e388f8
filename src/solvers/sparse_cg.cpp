// The one CG solver. Matrix-free CG (cg.hpp) and sparse CG (sparse_cg.hpp)
// share its problem setup, serial reference, persistent body, host-loop
// step and job class; they differ only in the Operator instance below,
// picked by the public entry point.
#include "solvers/sparse_cg.hpp"

#include <algorithm>
#include <array>
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
#include <string_view>
#include <utility>
#include <vector>

#include "cpufree/halo.hpp"
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

// Dense phases: streaming traffic per point (read + write doubles).
constexpr double kDotBytes = 16.0;      // read two vectors
// The simulated kernel updates x as well as r, so its traffic counts x. The
// host model stores neither x nor b (which only seeds r and p): no result
// reads them, and r carries the residual.
constexpr double kAxpy2Bytes = 48.0;    // read p, q, x, r; write x, r
constexpr double kPUpdateBytes = 24.0;  // read r, p; write p

double rhs_value(std::size_t gy, std::size_t gx) {
  return static_cast<double>((gy * 53 + gx * 29) % 83) / 83.0;
}

/// `v` in the shortest form that reads back as the same double.
std::string shortest(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
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
  if (ranks < 1) {
    throw std::invalid_argument("CG: ranks " + std::to_string(ranks) +
                                " must be at least 1");
  }
  if (!std::isfinite(imbalance) || imbalance > kMaxImbalance) {
    throw std::invalid_argument("sparse CG: imbalance " +
                                shortest(imbalance) +
                                " must be finite and at most " +
                                shortest(kMaxImbalance));
  }
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::size_t> rows(n, 0);
  if (ranks == 1) {
    rows[0] = ny;
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

namespace {

/// Every rank's slice under `config`'s weighted split, in O(ranks), with no
/// layout bound.
SparseOperator split_slices(const SparseCgConfig& config, int ranks) {
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

/// q = A p over interior rows 1..rows, returning dot(p, q) accumulated in
/// the same row order. The two instances add a point's five terms in
/// different orders, so their bits differ:
///  * stencil: 4·p − up − down − west − east, an absent neighbour
///    subtracting 0.0 (the matrix-free CG's order);
///  * CSR: from 0.0, add −1·up, −1·west, 4·diag, −1·east, −1·down, skipping
///    absent neighbours (a stored row's column order). Multiplying by −1 and
///    4 is exact, so q has the bits a stored matrix would give.
template <bool kStencilTerms>
double five_point_dot(const CsrSlice& s, std::span<const double> p,
                      std::span<double> q) {
  const std::size_t nx = s.nx;
  double pq = 0.0;
  for (std::size_t r = 1; r <= s.rows; ++r) {
    const std::size_t gy = s.offset + r - 1;
    const bool has_up = gy > 0;
    const bool has_down = gy + 1 < s.ny;
    const double* up = p.data() + (r - 1) * nx;
    const double* mid = up + nx;
    const double* down = mid + nx;
    double* qr = q.data() + r * nx;
    auto point = [&](std::size_t j, bool u, bool w, bool e, bool d) {
      double acc;
      if constexpr (kStencilTerms) {
        acc = 4.0 * mid[j] - (u ? up[j] : 0.0) - (d ? down[j] : 0.0) -
              (w ? mid[j - 1] : 0.0) - (e ? mid[j + 1] : 0.0);
      } else {
        acc = 0.0;
        if (u) acc += -1.0 * up[j];
        if (w) acc += -1.0 * mid[j - 1];
        acc += 4.0 * mid[j];
        if (e) acc += -1.0 * mid[j + 1];
        if (d) acc += -1.0 * down[j];
      }
      qr[j] = acc;
      pq += mid[j] * acc;
    };
    if (!has_up || !has_down || nx < 3) {
      for (std::size_t j = 0; j < nx; ++j) {
        point(j, has_up, j > 0, j + 1 < nx, has_down);
      }
      continue;
    }
    // Interior points have all five neighbours: constant flags, so the
    // inlined body has no branches.
    point(0, true, false, true, true);
    for (std::size_t j = 1; j + 1 < nx; ++j) point(j, true, true, true, true);
    point(nx - 1, true, true, false, true);
  }
  return pq;
}

}  // namespace

SparseOperator sparse_operator(const SparseCgConfig& config, int ranks) {
  if (std::string why = csr_overflow(config, ranks); !why.empty()) {
    throw std::invalid_argument(why);
  }
  return split_slices(config, ranks);
}

// The kernels walk interior rows 1..rows of the halo-extended layout, which
// is the flat index range [nx, (rows+1)*nx), and add in that order.

double CsrSlice::spmv_dot(std::span<const double> p,
                          std::span<double> q) const {
  return five_point_dot<false>(*this, p, q);
}

// Kept out of line: inlined into reference_uncached's rank loop, GCC's code
// for it ran the serial reference slower than the call does.
[[gnu::noinline]] double CsrSlice::r_update_dot(double alpha,
                                                std::span<const double> q,
                                                std::span<double> r) const {
  double rr = 0.0;
  for (std::size_t i = nx; i < (rows + 1) * nx; ++i) {
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

/// The solver's operator description. It has exactly two instances:
/// kStencil serves the matrix-free entry points of cg.hpp, kCsr the sparse
/// ones. Each field is a difference the two must keep (DESIGN §14).
struct Operator {
  /// Term order of the SpMV (five_point_dot's instance). Also the memo key.
  bool stencil;
  /// Whether a persistent iteration ends at the plan's join (a grid sync).
  /// The matrix-free CG never synced per iteration; exec::Program::groups
  /// states when a program may omit it.
  bool join;
  /// Whether the split must fit the simulated device's 32-bit CSR.
  bool csr_bound;
  /// SpMV device traffic per nonzero and per point.
  double bytes_per_nnz;
  double bytes_per_point;
  // Names in traces, checker reports and hang reports.
  std::string_view group;     // persistent block group
  std::string_view kernel;    // the job's persistent launch
  std::string_view phase;     // host-loop launches
  std::string_view spmv;      // persistent SpMV phase
  std::string_view spmv_dot;  // host-loop SpMV + dot(p, q) launch phase
  std::array<std::string_view, 5> allocs;  // p, r, q, pq/rr slots

  [[nodiscard]] SparseOperator slices(const SparseCgConfig& cfg,
                                      int ranks) const {
    return csr_bound ? sparse_operator(cfg, ranks) : split_slices(cfg, ranks);
  }
  [[nodiscard]] double apply(const CsrSlice& s, std::span<const double> p,
                             std::span<double> q) const {
    return stencil ? five_point_dot<true>(s, p, q) : s.spmv_dot(p, q);
  }
  [[nodiscard]] double spmv_bytes(const CsrSlice& s) const {
    return static_cast<double>(s.nnz) * bytes_per_nnz +
           s.points() * bytes_per_point;
  }
};

constexpr Operator kStencil{
    .stencil = true,
    .join = false,
    .csr_bound = false,
    // Matrix-free: read p (cached halo rows), write q.
    .bytes_per_nnz = 0.0,
    .bytes_per_point = 16.0,
    .group = "cg",
    .kernel = "cg_cpufree",
    .phase = "cg_phase",
    .spmv = "spmv",
    .spmv_dot = "spmv+dot",
    .allocs = {"p", "r", "q", "pq_slots", "rr_slots"}};

constexpr Operator kCsr{
    .stencil = false,
    .join = true,
    .csr_bound = true,
    // 32-bit CSR: value + column index per nonzero, one q write per row.
    .bytes_per_nnz = 12.0,
    .bytes_per_point = 8.0,
    .group = "sparse_cg",
    .kernel = "sparse_cg_cpufree",
    .phase = "sparse_cg_phase",
    .spmv = "spmv_csr",
    .spmv_dot = "spmv_csr+dot",
    .allocs = {"sp_p", "sp_r", "sp_q", "sp_pq", "sp_rr"}};

/// The matrix-free problem in the shared config: imbalance 1 is the even
/// split.
SparseCgConfig as_sparse(const CgConfig& c) {
  SparseCgConfig s;
  s.nx = c.nx;
  s.ny = c.ny;
  s.max_iterations = c.max_iterations;
  s.tolerance = c.tolerance;
  static_cast<exec::RunOptions&>(s) = c;
  return s;
}

/// r0 = p0 = b, since x0 = 0.
void init_vectors(const CsrSlice& s, std::span<double> r,
                  std::span<double> p) {
  for (std::size_t row = 1; row <= s.rows; ++row) {
    const std::size_t gy = s.offset + row - 1;
    for (std::size_t j = 0; j < s.nx; ++j) {
      const double v = rhs_value(gy, j);
      r[s.idx(row, j)] = v;
      p[s.idx(row, j)] = v;
    }
  }
}

/// Copies every rank's boundary rows of p into its neighbours' halo rows;
/// `p(d)` is rank d's halo-extended vector.
template <class Vec>
void fill_halos(const SparseOperator& slices, Vec&& p) {
  for (std::size_t d = 0; d < slices.size(); ++d) {
    const CsrSlice& s = slices[d];
    if (d > 0) {
      const CsrSlice& up = slices[d - 1];
      std::copy_n(p(d - 1).data() + up.idx(up.rows, 0), s.nx,
                  p(d).data() + s.idx(0, 0));
    }
    if (d + 1 < slices.size()) {
      std::copy_n(p(d + 1).data() + slices[d + 1].idx(1, 0), s.nx,
                  p(d).data() + s.idx(s.rows + 1, 0));
    }
  }
}

/// The reference without the memo: the distributed runs' accumulation and
/// rank-ordered reduction, serially.
CgResult reference_uncached(const Operator& op, const SparseCgConfig& cfg,
                            int ranks) {
  const SparseOperator states = op.slices(cfg, ranks);
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::vector<double>> r(n), p(n), q(n);
  for (std::size_t d = 0; d < n; ++d) {
    const auto sz = (states[d].rows + 2) * cfg.nx;
    r[d].assign(sz, 0.0);
    p[d].assign(sz, 0.0);
    q[d].assign(sz, 0.0);
    init_vectors(states[d], r[d], p[d]);
  }
  auto reduce = [&](auto&& fn) {
    std::vector<double> partials;
    for (std::size_t d = 0; d < n; ++d) partials.push_back(fn(d));
    return combine(partials);
  };

  CgResult res;
  double rz = reduce([&](std::size_t d) { return states[d].dot(r[d], r[d]); });
  for (int t = 1; t <= cfg.max_iterations; ++t) {
    fill_halos(states, [&p](std::size_t d) -> std::vector<double>& {
      return p[d];
    });
    const double pq = reduce(
        [&](std::size_t d) { return op.apply(states[d], p[d], q[d]); });
    const double alpha = rz / pq;
    const double rr = reduce([&](std::size_t d) {
      return states[d].r_update_dot(alpha, q[d], r[d]);
    });
    res.rr_history.push_back(rr);
    res.iterations_run = t;
    res.final_rr = rr;
    if (rr < cfg.tolerance) break;
    const double beta = rr / rz;
    rz = rr;
    for (std::size_t d = 0; d < n; ++d) states[d].p_update(beta, r[d], p[d]);
  }
  return res;
}

/// Exactly what the reference reads: the operator, the config fields and
/// the rank count. Doubles are keyed by bit pattern so the key order stays
/// total.
struct ReferenceKey {
  bool stencil;
  std::size_t nx;
  std::size_t ny;
  int max_iterations;
  std::uint64_t tolerance;
  std::uint64_t imbalance;
  int ranks;

  auto operator<=>(const ReferenceKey&) const = default;
};

/// The reference, computed once per process for each key; every call
/// returns its own copy.
CgResult reference(const Operator& op, const SparseCgConfig& cfg, int ranks) {
  static sim::Memo<ReferenceKey, CgResult> memo;
  const ReferenceKey key{op.stencil,
                         cfg.nx,
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
    return reference_uncached(key.stencil ? kStencil : kCsr, keyed, key.ranks);
  });
}

/// The problem on `world` (the whole machine or a device slice): each
/// rank's slice and the halo-extended p, r and q, one element each when
/// timing-only, with r0 = p0 = b. Throws std::invalid_argument
/// for a split the operator rejects, or a config whose mode is not the
/// World's, before allocating anything problem-sized. Only CgCpufreeJob can
/// reach the second: run() sets the World's mode from the config.
struct Problem {
  Problem(const Operator& o, vshmem::World& w, const SparseCgConfig& c)
      : op(&o),
        cfg(c),
        world(&w),
        n(w.n_pes()),
        slices(o.slices(c, w.n_pes())) {
    exec::check_mode("CgCpufreeJob", cfg, w);
    std::size_t rows = 0;
    for (const CsrSlice& s : slices) rows = std::max(rows, s.rows);
    const std::size_t size = cfg.functional ? (rows + 2) * cfg.nx : 1;
    p = w.alloc<double>(size, op->allocs[0]);
    r = w.alloc<double>(size, op->allocs[1]);
    q = w.alloc<double>(size, op->allocs[2]);
  }

  /// Fills r and p, and returns r0·r0 combined in rank order (1 when
  /// timing-only).
  double init() {
    if (!cfg.functional) return 1.0;
    std::vector<double> partials;
    for (int d = 0; d < n; ++d) {
      const CsrSlice& s = slices[static_cast<std::size_t>(d)];
      init_vectors(s, r.on(d), p.on(d));
      partials.push_back(s.dot(r.on(d), r.on(d)));
    }
    return combine(partials);
  }

  /// PE 0's record of iteration t's residual.
  void publish(int dev, int t, double rr) {
    if (dev != 0) return;
    if (cfg.functional) history.push_back(rr);
    iterations_run = t;
    final_rr = rr;
  }

  CgResult result(vgpu::Machine& machine) const {
    CgResult res;
    res.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                       iterations_run);
    cpufree::apply_fault_stats(res.metrics, machine.faults().stats());
    res.iterations_run = iterations_run;
    res.final_rr = final_rr;
    res.rr_history = history;
    return res;
  }

  /// A program on this problem's World built for `plan`, without hooks.
  exec::Program program(const exec::Plan& plan) const {
    return {.world = world,
            .plan = plan,
            .iterations = cfg.max_iterations,
            .threads_per_block = cfg.threads_per_block};
  }

  const Operator* op;
  SparseCgConfig cfg;
  vshmem::World* world;
  int n;
  SparseOperator slices;
  vshmem::Sym<double> p, r, q;
  std::vector<double> history;
  int iterations_run = 0;
  double final_rr = 0.0;
};

/// The persistent composition's state: the problem plus the allreduce slots
/// and the signals. Signal layout: reduction flags channel*n + peer
/// (channel 0 = p·q, 1 = r·r), halo flags 2n and 2n+1, preset to 1.
struct Core : Problem {
  Core(const Operator& o, vshmem::World& w, const SparseCgConfig& c)
      : Problem(o, w, c),
        persistent_blocks(exec::resolve_persistent_blocks(
            c.persistent_blocks, w.machine().spec(), c.threads_per_block)),
        slots0(w.alloc<double>(static_cast<std::size_t>(n), o.allocs[3])),
        slots1(w.alloc<double>(static_cast<std::size_t>(n), o.allocs[4])),
        sig(w.alloc_signals(2 * static_cast<std::size_t>(n) + 2)),
        top_halo(2 * static_cast<std::size_t>(n)),
        bottom_halo(top_halo + 1) {
    for (int pe = 0; pe < n; ++pe) {
      sig->at(pe, top_halo).set(1);
      sig->at(pe, bottom_halo).set(1);
    }
    rz0 = init();
    // Iteration 1's halo flags are pre-signaled: the initial neighbour
    // boundaries must already be in the halos.
    if (cfg.functional) {
      fill_halos(slices,
                 [this](std::size_t d) { return p.on(static_cast<int>(d)); });
    }
  }

  int persistent_blocks;
  vshmem::Sym<double> slots0, slots1;
  std::unique_ptr<vshmem::SignalSet> sig;
  std::size_t top_halo;
  std::size_t bottom_halo;
  double rz0 = 1.0;
};

/// PE `dev`'s persistent body: one comm group per device. The CSR instance
/// closes each iteration at the join's comm_end (grid sync); the stencil
/// instance omits it, as exec::Program::groups allows for this shape.
exec::ProgramGroups persistent_groups(Core& core, int dev,
                                      const exec::IterationJoin& join) {
  auto body = [&core, dev,
               comm_end = join.comm_end](vgpu::KernelCtx& k) -> sim::Task {
    const Operator& op = *core.op;
    const SparseCgConfig& cfg = core.cfg;
    vshmem::World& world = *core.world;
    const int n = core.n;
    const CsrSlice* st = &core.slices[static_cast<std::size_t>(dev)];
    // The top neighbour's bottom-halo row index depends on ITS row count.
    const std::size_t up_rows =
        dev > 0 ? core.slices[static_cast<std::size_t>(dev - 1)].rows : 0;
    vshmem::Sym<double>& p = core.p;
    const double pts = st->points();
    double rz = core.rz0;

    // Halo flags and reduction flags both follow the iteration-number
    // semaphore protocol.
    cpufree::IterationProtocol proto(world, *core.sig);
    auto sum_slots = [&](vshmem::Sym<double>& slots) {
      double acc = 0.0;
      for (int pe = 0; pe < n; ++pe) {
        acc += slots.on(dev)[static_cast<std::size_t>(pe)];
      }
      return acc;
    };

    for (int t = 1; t <= cfg.max_iterations; ++t) {
      // Wait for this iteration's p halos (initial values pre-signaled).
      if (dev > 0) {
        co_await proto.wait_iteration(k, core.top_halo, t);
      }
      if (dev + 1 < n) {
        co_await proto.wait_iteration(k, core.bottom_halo, t);
      }
      // The SpMV's halo-row reads are only safe after those waits.
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
        f_spmv = [&core, st, dev, &pq_local] {
          pq_local = core.op->apply(*st, core.p.on(dev), core.q.on(dev));
        };
      }
      // The CSR cost is nnz-proportional, which is where the weighted
      // partition bites: heavy ranks stream more entries every iteration.
      co_await k.compute(op.spmv_bytes(*st), 1.0, op.spmv, std::move(f_spmv));
      co_await k.compute(pts * kDotBytes, 1.0, "dot_pq", {});
      CO_AWAIT(exec::allreduce_put_wait(world, k, core.slots0, *core.sig,
                                        /*flag_base=*/0, dev, n, t, pq_local,
                                        cfg.functional));
      const double pq = cfg.functional ? sum_slots(core.slots0) : 1.0;
      const double alpha = cfg.functional ? rz / pq : 0.0;

      double rr_local = 0.0;
      std::function<void()> f_axpy;
      if (cfg.functional) {
        f_axpy = [&core, st, alpha, dev, &rr_local] {
          rr_local = st->r_update_dot(alpha, core.q.on(dev), core.r.on(dev));
        };
      }
      co_await k.compute(pts * kAxpy2Bytes, 1.0, "axpy", std::move(f_axpy));
      co_await k.compute(pts * kDotBytes, 1.0, "dot_rr", {});
      CO_AWAIT(exec::allreduce_put_wait(
          world, k, core.slots1, *core.sig,
          /*flag_base=*/static_cast<std::size_t>(n), dev, n, t, rr_local,
          cfg.functional));
      const double rr = cfg.functional ? sum_slots(core.slots1) : 1.0;

      core.publish(dev, t, rr);
      // The convergence decision happens ON the devices; the host never
      // polls a residual. All PEs computed the same rr.
      if (cfg.functional && rr < cfg.tolerance) co_return;

      const double beta = cfg.functional ? rr / rz : 0.0;
      if (cfg.functional) rz = rr;
      std::function<void()> f_pup;
      if (cfg.functional) {
        f_pup = [&core, st, beta, dev] {
          st->p_update(beta, core.r.on(dev), core.p.on(dev));
        };
      }
      co_await k.compute(pts * kPUpdateBytes, 1.0, "p_update",
                         std::move(f_pup));

      // Publish next iteration's p boundary rows.
      if (dev > 0) {
        co_await proto.put_and_signal(k, p, st->idx(1, 0),
                                      (up_rows + 1) * st->nx, st->nx,
                                      core.bottom_halo, t + 1, dev - 1);
      }
      if (dev + 1 < n) {
        co_await proto.put_and_signal(k, p, st->idx(st->rows, 0),
                                      st->idx(0, 0), st->nx, core.top_halo,
                                      t + 1, dev + 1);
      }
      if (op.join) CO_AWAIT(comm_end(k, /*lead=*/true, t));
    }
  };

  exec::ProgramGroups pg;
  pg.comm.push_back(vgpu::BlockGroup{core.op->group, core.persistent_blocks,
                                     std::move(body)});
  return pg;
}

/// The persistent composition as an exec::Program built for `plan` (groups
/// hook only; the core owns its SignalSet).
exec::Program persistent_program(Core& core, const exec::Plan& plan) {
  exec::Program prog = core.program(plan);
  prog.groups = [&core](int dev, const exec::IterationJoin& join) {
    return persistent_groups(core, dev, join);
  };
  return prog;
}

/// The CPU-controlled loop's per-rank state across host steps.
struct HostLoop {
  explicit HostLoop(Problem& problem)
      : prob(&problem),
        pq_box(std::make_shared<std::vector<double>>(
            static_cast<std::size_t>(problem.n), 0.0)),
        rr_box(std::make_shared<std::vector<double>>(
            static_cast<std::size_t>(problem.n), 0.0)),
        pq_partials(static_cast<std::size_t>(problem.n), 0.0),
        rr_partials(static_cast<std::size_t>(problem.n), 0.0),
        converged(static_cast<std::size_t>(problem.n), 0) {
    rz.assign(static_cast<std::size_t>(problem.n), problem.init());
  }

  Problem* prob;
  // Each rank's allreduce deliver writes its own slot in everyone's box: the
  // shared box stands in for the n per-rank receive buffers.
  std::shared_ptr<std::vector<double>> pq_box, rr_box;
  std::vector<double> pq_partials, rr_partials;
  std::vector<double> rz;
  // The data-dependent termination test: a converged rank's remaining host
  // steps return at their top.
  std::vector<char> converged;
};

/// One step of the CPU-controlled loop on device `dev`: halo exchange of p
/// by host-issued memcpys and a host barrier, then SpMV + dot(p, q),
/// AXPYs + dot(r, r) and the p update as discrete launches, with a stream
/// sync and an MPI allreduce for each scalar the host needs. Returns at its
/// top once the rank has converged.
sim::Task host_step(HostLoop& loop, hostmpi::Comm& comm, vgpu::HostCtx& h,
                    int dev, int t, vgpu::Stream& stream) {
  if (loop.converged[static_cast<std::size_t>(dev)] != 0) co_return;
  Problem& prob = *loop.prob;
  const Operator& op = *prob.op;
  const SparseCgConfig& cfg = prob.cfg;
  const int n = prob.n;
  const SparseOperator& states = prob.slices;
  vshmem::Sym<double>& p = prob.p;
  const CsrSlice* st = &states[static_cast<std::size_t>(dev)];
  const double pts = st->points();
  double* pq_partial = &loop.pq_partials[static_cast<std::size_t>(dev)];
  double* rr_partial = &loop.rr_partials[static_cast<std::size_t>(dev)];
  double& rz = loop.rz[static_cast<std::size_t>(dev)];
  vgpu::Stream* const step_streams[] = {&stream};

  // Checker-facing byte ranges of the p halo pushes.
  exec::HaloRangeFn p_ranges;
  if (h.machine().engine().observer() != nullptr) {
    p_ranges = [&states, &p, st,
                dev](bool to_top) -> std::pair<sim::MemRange, sim::MemRange> {
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

  // SpMV + dot(p, q); the host needs the scalar: stream sync after.
  std::function<void()> f1;
  if (cfg.functional) {
    f1 = [&prob, st, dev, pq_partial] {
      *pq_partial = prob.op->apply(*st, prob.p.on(dev), prob.q.on(dev));
    };
  }
  std::function<void(vgpu::KernelCtx&)> observe_halo_reads;
  if (h.machine().engine().observer() != nullptr) {
    observe_halo_reads = [st, &p, dev, n](vgpu::KernelCtx& k) {
      if (dev > 0) {
        k.obs_access(sim::MemRange::of(p.on(dev), st->idx(0, 0), st->nx),
                     /*is_write=*/false, "p_halo_read");
      }
      if (dev + 1 < n) {
        k.obs_access(
            sim::MemRange::of(p.on(dev), st->idx(st->rows + 1, 0), st->nx),
            /*is_write=*/false, "p_halo_read");
      }
    };
  }
  CO_AWAIT(exec::launch_compute(h, stream, op.phase, op.spmv_dot,
                                op.spmv_bytes(*st) + pts * kDotBytes,
                                std::move(f1), std::move(observe_halo_reads)));
  CO_AWAIT(h.sync_stream(stream));
  co_await h.api("memcpy_dtoh_scalar");
  CO_AWAIT(exec::host_allreduce(comm, h, dev, n, /*tag=*/0, *pq_partial,
                                loop.pq_box, cfg.functional));
  const double pq = cfg.functional ? combine(*loop.pq_box) : 1.0;
  const double alpha = cfg.functional ? rz / pq : 0.0;

  // AXPY updates + dot(r, r); sync again for the scalar.
  std::function<void()> f2;
  if (cfg.functional) {
    f2 = [&prob, st, alpha, dev, rr_partial] {
      *rr_partial = st->r_update_dot(alpha, prob.q.on(dev), prob.r.on(dev));
    };
  }
  CO_AWAIT(exec::launch_compute(h, stream, op.phase, "axpy+dot",
                                pts * (kAxpy2Bytes + kDotBytes),
                                std::move(f2)));
  CO_AWAIT(h.sync_stream(stream));
  co_await h.api("memcpy_dtoh_scalar");
  CO_AWAIT(exec::host_allreduce(comm, h, dev, n, /*tag=*/1, *rr_partial,
                                loop.rr_box, cfg.functional));
  const double rr = cfg.functional ? combine(*loop.rr_box) : 1.0;

  prob.publish(dev, t, rr);
  if (cfg.functional && rr < cfg.tolerance) {
    loop.converged[static_cast<std::size_t>(dev)] = 1;
    co_return;
  }

  const double beta = cfg.functional ? rr / rz : 0.0;
  if (cfg.functional) rz = rr;
  std::function<void()> f3;
  if (cfg.functional) {
    f3 = [&prob, st, beta, dev] {
      st->p_update(beta, prob.r.on(dev), prob.p.on(dev));
    };
  }
  CO_AWAIT(exec::launch_compute(h, stream, op.phase, "p_update",
                                pts * kPUpdateBytes, std::move(f3)));
  co_await exec::end_host_step(h, exec::SyncPolicy::kHostBarrier,
                               step_streams);
}

/// Runs `op`'s problem under `plan` on a fresh machine: the persistent
/// composition or the host-loop/staged-copy one (the caller checked which).
CgResult run(const Operator& op, const vgpu::MachineSpec& spec,
             const SparseCgConfig& cfg, const exec::Plan& plan) {
  vgpu::Machine machine(spec);
  machine.engine().set_observer(cfg.observer);
  vshmem::World world(machine);
  world.set_functional(cfg.functional);
  machine.trace().set_enabled(cfg.trace);

  if (plan.launch == exec::LaunchPolicy::kPersistent) {
    Core core(op, world, cfg);
    exec::run_program(persistent_program(core, plan));
    return core.result(machine);
  }

  hostmpi::Comm comm(machine);
  Problem prob(op, world, cfg);
  HostLoop loop(prob);
  exec::Program prog = prob.program(plan);
  prog.host_step = [&loop, &comm](vgpu::HostCtx& h, int dev, int t,
                                  std::span<vgpu::Stream* const> streams) {
    return host_step(loop, comm, h, dev, t, *streams[0]);
  };
  exec::run_program(prog);
  return prob.result(machine);
}

constexpr exec::Plan kCpuFreePlan{exec::LaunchPolicy::kPersistent,
                                  exec::CommPolicy::kSignaledPut,
                                  exec::SyncPolicy::kIterationFlags,
                                  "cg_cpufree"};
constexpr exec::Plan kBaselinePlan{exec::LaunchPolicy::kHostLoop,
                                   exec::CommPolicy::kStagedCopy,
                                   exec::SyncPolicy::kHostBarrier, "cg"};

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

}  // namespace

CgResult cg_reference(const CgConfig& config, int ranks) {
  return reference(kStencil, as_sparse(config), ranks);
}

CgResult sparse_cg_reference(const SparseCgConfig& config, int ranks) {
  return reference(kCsr, config, ranks);
}

CgResult run_cg_cpufree(const vgpu::MachineSpec& spec,
                        const CgConfig& config) {
  return run(kStencil, spec, as_sparse(config), kCpuFreePlan);
}

CgResult run_cg_baseline(const vgpu::MachineSpec& spec,
                         const CgConfig& config) {
  return run(kStencil, spec, as_sparse(config), kBaselinePlan);
}

CgResult run_sparse_cg(const vgpu::MachineSpec& spec,
                       const SparseCgConfig& config, const exec::Plan& plan) {
  const bool persistent = plan.launch == exec::LaunchPolicy::kPersistent &&
                          exec::valid(plan);
  const bool host_staged = plan.launch == exec::LaunchPolicy::kHostLoop &&
                           plan.comm == exec::CommPolicy::kStagedCopy &&
                           exec::valid(plan);
  if (!persistent && !host_staged) throw_unsupported(plan);
  return run(kCsr, spec, config, plan);
}

// --- Externally-driven job (multi-tenant serve) --------------------------------

struct CgCpufreeJob::Impl {
  Impl(const Operator& op, vshmem::World& world, const SparseCgConfig& cfg)
      : core(op, world, cfg),
        program(persistent_program(
            core, {exec::LaunchPolicy::kPersistent,
                   exec::CommPolicy::kSignaledPut,
                   exec::SyncPolicy::kIterationFlags, op.kernel})) {}

  Core core;
  exec::Program program;
};

CgCpufreeJob::CgCpufreeJob(vshmem::World& world, const CgConfig& config)
    : impl_(std::make_unique<Impl>(kStencil, world, as_sparse(config))) {}

CgCpufreeJob::CgCpufreeJob(vshmem::World& world, const SparseCgConfig& config)
    : impl_(std::make_unique<Impl>(kCsr, world, config)) {}

CgCpufreeJob::~CgCpufreeJob() = default;

sim::Task CgCpufreeJob::task() {
  // A member, not a temporary: the lazy coroutine keeps its const&
  // parameter alive only as a reference.
  return exec::run_program_persistent_task(impl_->program);
}

int CgCpufreeJob::iterations_run() const {
  return impl_->core.iterations_run;
}

double CgCpufreeJob::final_rr() const { return impl_->core.final_rr; }

const std::vector<double>& CgCpufreeJob::rr_history() const {
  return impl_->core.history;
}

CgResult CgCpufreeJob::reference() const {
  const Core& core = impl_->core;
  return solvers::reference(*core.op, core.cfg, core.n);
}

}  // namespace solvers
