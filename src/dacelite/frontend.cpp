#include "dacelite/frontend.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dacelite/pass.hpp"
#include "dacelite/transforms.hpp"
#include "stencil/slab.hpp"

namespace dacelite {

namespace {

/// Rejects `value` < 1 for the count `what`. Every frontend needs at least
/// one rank (its shapes divide by the count) and one iteration.
void require_positive(int value, const char* what, const char* fn) {
  if (value < 1) {
    std::string msg(fn);
    msg += ": ";
    msg += what;
    msg += " must be >= 1, got ";
    msg += std::to_string(value);
    throw std::invalid_argument(msg);
  }
}

}  // namespace

std::pair<int, int> grid_dims(int ranks) {
  require_positive(ranks, "ranks", "grid_dims");
  int px = static_cast<int>(std::sqrt(static_cast<double>(ranks)));
  while (px > 1 && ranks % px != 0) --px;
  return {px, ranks / px};  // px <= py
}

void to_cpu_free(Sdfg& sdfg) {
  Pipeline().apply(sdfg, Recipe::cpu_free_default());
}

// --- Jacobi 1D ----------------------------------------------------------------

namespace {

double init1d(std::size_t g) {
  return static_cast<double>((g * 37 + 11) % 101) / 101.0;
}

/// 3-point update with Dirichlet ends, shared by the map body and reference.
void jacobi1d_step(std::span<const double> src, std::span<double> dst,
                   std::size_t first_global, std::size_t count,
                   std::size_t global_n, std::size_t local_offset) {
  constexpr double kThird = 1.0 / 3.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t g = first_global + i;
    if (g == 0 || g + 1 >= global_n) continue;
    const std::size_t l = local_offset + i;
    dst[l] = kThird * (src[l - 1] + src[l] + src[l + 1]);
  }
}

}  // namespace

Jacobi1DProgram make_jacobi1d(std::size_t global_n, int ranks, int iterations) {
  require_positive(ranks, "ranks", "jacobi1d");
  require_positive(iterations, "iterations", "jacobi1d");
  if (global_n % static_cast<std::size_t>(ranks) != 0) {
    throw std::invalid_argument("jacobi1d: global_n must divide by ranks");
  }
  Jacobi1DProgram prog;
  prog.global_n = global_n;
  prog.ranks = ranks;
  prog.local_n = global_n / static_cast<std::size_t>(ranks);
  const std::size_t ln = prog.local_n;
  if (ln < 2) throw std::invalid_argument("jacobi1d: too few points per rank");

  Sdfg& s = prog.sdfg;
  s.name = "jacobi1d";
  s.default_iterations = iterations;

  auto initA = [ln](int rank, std::size_t i) {
    // Local layout: [0] left halo, [1..ln] interior, [ln+1] right halo.
    const auto g = static_cast<std::ptrdiff_t>(
                       static_cast<std::size_t>(rank) * ln + i) -
                   1;
    return g < 0 ? 0.0 : init1d(static_cast<std::size_t>(g));
  };
  s.add_array(ArrayDesc{"A", ln + 2, Storage::kHost, initA});
  s.add_array(ArrayDesc{"B", ln + 2, Storage::kHost, initA});

  // State 1: halo exchange (Listing 5.1 — Isend pairs + Waitall).
  State& comm = s.add_body_state("exchange");
  // Tags/flags: 0 = leftward-moving message, 1 = rightward-moving.
  {
    LibraryNode send_left;
    send_left.kind = LibKind::kMpiIsend;
    send_left.array = "A";
    send_left.src = Subset{1, 1, 1};        // A[1]
    send_left.dst = Subset{ln + 1, 1, 1};   // left peer's right halo
    send_left.flag = 0;
    send_left.peer = [](int r, int) { return r - 1; };
    send_left.guard = [](int r, int) { return r > 0; };
    comm.add(send_left);

    LibraryNode send_right;
    send_right.kind = LibKind::kMpiIsend;
    send_right.array = "A";
    send_right.src = Subset{ln, 1, 1};  // A[ln]
    send_right.dst = Subset{0, 1, 1};   // right peer's left halo
    send_right.flag = 1;
    send_right.peer = [](int r, int) { return r + 1; };
    send_right.guard = [](int r, int n) { return r + 1 < n; };
    comm.add(send_right);

    LibraryNode recv_right;  // matches the right peer's send_left (tag 0)
    recv_right.kind = LibKind::kMpiIrecv;
    recv_right.array = "A";
    recv_right.flag = 0;
    recv_right.peer = [](int r, int) { return r + 1; };
    recv_right.guard = [](int r, int n) { return r + 1 < n; };
    comm.add(recv_right);

    LibraryNode recv_left;  // matches the left peer's send_right (tag 1)
    recv_left.kind = LibKind::kMpiIrecv;
    recv_left.array = "A";
    recv_left.flag = 1;
    recv_left.peer = [](int r, int) { return r - 1; };
    recv_left.guard = [](int r, int) { return r > 0; };
    comm.add(recv_left);

    LibraryNode waitall;
    waitall.kind = LibKind::kMpiWaitall;
    comm.add(waitall);
  }

  // State 2: B[1:-1] = (A[:-2] + A[1:-1] + A[2:]) / 3.
  State& compute = s.add_body_state("compute");
  {
    MapNode map;
    map.name = "stencil1d";
    map.points = static_cast<double>(ln);
    map.bytes_per_point = 16.0;
    map.reads = {"A"};
    map.writes = {"B"};
    const std::size_t gn = global_n;
    map.body = [ln, gn](ExecCtx& c) {
      jacobi1d_step(c.local("A"), c.local("B"),
                    static_cast<std::size_t>(c.rank) * ln, ln, gn, 1);
    };
    compute.add(std::move(map));
  }

  // State 3: copy-back A = B (DaCe's write-back of the temporary).
  State& copy = s.add_body_state("copy_back");
  {
    MapNode map;
    map.name = "copy1d";
    map.points = static_cast<double>(ln);
    map.bytes_per_point = 16.0;
    map.reads = {"B"};
    map.writes = {"A"};
    map.body = [ln](ExecCtx& c) {
      auto a = c.local("A");
      auto b = c.local("B");
      for (std::size_t i = 1; i <= ln; ++i) a[i] = b[i];
    };
    copy.add(std::move(map));
  }

  s.validate();
  return prog;
}

std::vector<double> Jacobi1DProgram::gather(ProgramData& data) const {
  std::vector<double> out(global_n);
  for (int r = 0; r < ranks; ++r) {
    auto a = data.local("A", r);
    for (std::size_t i = 0; i < local_n; ++i) {
      out[static_cast<std::size_t>(r) * local_n + i] = a[i + 1];
    }
  }
  return out;
}

std::vector<double> Jacobi1DProgram::reference(int iterations) const {
  std::vector<double> a(global_n), b(global_n);
  for (std::size_t g = 0; g < global_n; ++g) a[g] = b[g] = init1d(g);
  for (int t = 1; t <= iterations; ++t) {
    jacobi1d_step(a, b, 0, global_n, global_n, 0);
    a = b;
  }
  return a;
}

// --- Jacobi 2D ----------------------------------------------------------------
//
// The same problem as stencil::Jacobi2D (initial condition and 5-point
// update), so the serial reference is the stencil library's.

Jacobi2DProgram make_jacobi2d(std::size_t gx, std::size_t gy, int ranks,
                              int iterations, int force_px) {
  require_positive(ranks, "ranks", "jacobi2d");
  require_positive(iterations, "iterations", "jacobi2d");
  Jacobi2DProgram prog;
  prog.gx = gx;
  prog.gy = gy;
  prog.ranks = ranks;
  if (force_px > 0 && ranks % force_px != 0) {
    throw std::invalid_argument("jacobi2d: force_px must divide ranks");
  }
  const int px = force_px > 0 ? force_px : grid_dims(ranks).first;
  const int py = ranks / px;
  prog.px = px;
  prog.py = py;
  if (gx % static_cast<std::size_t>(px) != 0 ||
      gy % static_cast<std::size_t>(py) != 0) {
    throw std::invalid_argument(
        "jacobi2d: domain must divide by the process grid");
  }
  prog.lnx = gx / static_cast<std::size_t>(px);
  prog.lny = gy / static_cast<std::size_t>(py);
  const std::size_t lnx = prog.lnx;
  const std::size_t lny = prog.lny;
  const std::size_t w = lnx + 2;  // padded row width

  Sdfg& s = prog.sdfg;
  s.name = "jacobi2d";
  s.default_iterations = iterations;

  auto initA = [lnx, lny, w, px, gx, gy](int rank, std::size_t i) {
    const int rx = rank % px;
    const int ry = rank / px;
    const auto iy = static_cast<std::ptrdiff_t>(i / w) - 1;
    const auto ix = static_cast<std::ptrdiff_t>(i % w) - 1;
    const auto py_g = static_cast<std::ptrdiff_t>(ry) *
                          static_cast<std::ptrdiff_t>(lny) +
                      iy;
    const auto px_g = static_cast<std::ptrdiff_t>(rx) *
                          static_cast<std::ptrdiff_t>(lnx) +
                      ix;
    if (py_g < 0 || px_g < 0 || py_g >= static_cast<std::ptrdiff_t>(gy) ||
        px_g >= static_cast<std::ptrdiff_t>(gx)) {
      return 0.0;
    }
    return stencil::Jacobi2D{}.initial(static_cast<std::size_t>(py_g),
                                       static_cast<std::size_t>(px_g));
  };
  const std::size_t local_size = (lny + 2) * w;
  s.add_array(ArrayDesc{"A", local_size, Storage::kHost, initA});
  s.add_array(ArrayDesc{"B", local_size, Storage::kHost, initA});

  // Rank-grid helpers (captured by value in the node lambdas).
  auto row_of = [px](int r) { return r / px; };
  auto col_of = [px](int r) { return r % px; };

  State& comm = s.add_body_state("exchange");
  // Flags: 0 north-moving, 1 south-moving, 2 west-moving, 3 east-moving.
  {
    LibraryNode n_send;  // my row 1 -> north peer's bottom halo row
    n_send.kind = LibKind::kMpiIsend;
    n_send.array = "A";
    n_send.src = Subset{1 * w + 1, lnx, 1};
    n_send.dst = Subset{(lny + 1) * w + 1, lnx, 1};
    n_send.flag = 0;
    n_send.peer = [px](int r, int) { return r - px; };
    n_send.guard = [row_of](int r, int) { return row_of(r) > 0; };
    comm.add(n_send);

    LibraryNode s_send;  // my row lny -> south peer's top halo row
    s_send.kind = LibKind::kMpiIsend;
    s_send.array = "A";
    s_send.src = Subset{lny * w + 1, lnx, 1};
    s_send.dst = Subset{0 * w + 1, lnx, 1};
    s_send.flag = 1;
    s_send.peer = [px](int r, int) { return r + px; };
    s_send.guard = [row_of, py](int r, int) { return row_of(r) + 1 < py; };
    comm.add(s_send);

    LibraryNode w_send;  // my column 1 -> west peer's east halo column
    w_send.kind = LibKind::kMpiIsend;
    w_send.array = "A";
    w_send.src = Subset{1 * w + 1, lny, static_cast<std::ptrdiff_t>(w)};
    w_send.dst =
        Subset{1 * w + lnx + 1, lny, static_cast<std::ptrdiff_t>(w)};
    w_send.flag = 2;
    w_send.peer = [](int r, int) { return r - 1; };
    w_send.guard = [col_of](int r, int) { return col_of(r) > 0; };
    comm.add(w_send);

    LibraryNode e_send;  // my column lnx -> east peer's west halo column
    e_send.kind = LibKind::kMpiIsend;
    e_send.array = "A";
    e_send.src = Subset{1 * w + lnx, lny, static_cast<std::ptrdiff_t>(w)};
    e_send.dst = Subset{1 * w + 0, lny, static_cast<std::ptrdiff_t>(w)};
    e_send.flag = 3;
    e_send.peer = [](int r, int) { return r + 1; };
    e_send.guard = [col_of, px](int r, int) { return col_of(r) + 1 < px; };
    comm.add(e_send);

    // Matching receives: from south (north-moving, 0), north (south-moving,
    // 1), east (west-moving, 2), west (east-moving, 3).
    LibraryNode recv_s;
    recv_s.kind = LibKind::kMpiIrecv;
    recv_s.array = "A";
    recv_s.flag = 0;
    recv_s.peer = [px](int r, int) { return r + px; };
    recv_s.guard = [row_of, py](int r, int) { return row_of(r) + 1 < py; };
    comm.add(recv_s);

    LibraryNode recv_n;
    recv_n.kind = LibKind::kMpiIrecv;
    recv_n.array = "A";
    recv_n.flag = 1;
    recv_n.peer = [px](int r, int) { return r - px; };
    recv_n.guard = [row_of](int r, int) { return row_of(r) > 0; };
    comm.add(recv_n);

    LibraryNode recv_e;
    recv_e.kind = LibKind::kMpiIrecv;
    recv_e.array = "A";
    recv_e.flag = 2;
    recv_e.peer = [](int r, int) { return r + 1; };
    recv_e.guard = [col_of, px](int r, int) { return col_of(r) + 1 < px; };
    comm.add(recv_e);

    LibraryNode recv_w;
    recv_w.kind = LibKind::kMpiIrecv;
    recv_w.array = "A";
    recv_w.flag = 3;
    recv_w.peer = [](int r, int) { return r - 1; };
    recv_w.guard = [col_of](int r, int) { return col_of(r) > 0; };
    comm.add(recv_w);

    LibraryNode waitall;
    waitall.kind = LibKind::kMpiWaitall;
    comm.add(waitall);
  }

  State& compute = s.add_body_state("compute");
  {
    MapNode map;
    map.name = "stencil2d";
    map.points = static_cast<double>(lnx * lny);
    map.bytes_per_point = 16.0;
    map.reads = {"A"};
    map.writes = {"B"};
    const std::size_t ggx = gx;
    const std::size_t ggy = gy;
    map.body = [lnx, lny, w, px, ggx, ggy](ExecCtx& c) {
      const int rx = c.rank % px;
      const int ry = c.rank / px;
      auto a = c.local("A");
      auto b = c.local("B");
      for (std::size_t iy = 1; iy <= lny; ++iy) {
        const std::size_t row_g = static_cast<std::size_t>(ry) * lny + iy - 1;
        if (row_g == 0 || row_g + 1 >= ggy) continue;
        for (std::size_t ix = 1; ix <= lnx; ++ix) {
          const std::size_t col_g =
              static_cast<std::size_t>(rx) * lnx + ix - 1;
          if (col_g == 0 || col_g + 1 >= ggx) continue;
          const std::size_t i = iy * w + ix;
          b[i] = 0.25 * (a[i - w] + a[i + w] + a[i - 1] + a[i + 1]);
        }
      }
    };
    compute.add(std::move(map));
  }

  State& copy = s.add_body_state("copy_back");
  {
    MapNode map;
    map.name = "copy2d";
    map.points = static_cast<double>(lnx * lny);
    map.bytes_per_point = 16.0;
    map.reads = {"B"};
    map.writes = {"A"};
    map.body = [lnx, lny, w](ExecCtx& c) {
      auto a = c.local("A");
      auto b = c.local("B");
      for (std::size_t iy = 1; iy <= lny; ++iy) {
        for (std::size_t ix = 1; ix <= lnx; ++ix) {
          a[iy * w + ix] = b[iy * w + ix];
        }
      }
    };
    copy.add(std::move(map));
  }

  s.validate();
  return prog;
}

namespace {

/// Calls visit(global index, value) for every rank's interior point of A,
/// rank by rank, until it returns false; returns whether it never did.
template <class Visit>
bool visit_points(const Jacobi2DProgram& p, ProgramData& data, Visit visit) {
  const std::size_t w = p.lnx + 2;
  for (int r = 0; r < p.ranks; ++r) {
    const auto rx = static_cast<std::size_t>(r % p.px);
    const auto ry = static_cast<std::size_t>(r / p.px);
    auto a = data.local("A", r);
    for (std::size_t iy = 1; iy <= p.lny; ++iy) {
      for (std::size_t ix = 1; ix <= p.lnx; ++ix) {
        const std::size_t row_g = ry * p.lny + iy - 1;
        const std::size_t col_g = rx * p.lnx + ix - 1;
        if (!visit(row_g * p.gx + col_g, a[iy * w + ix])) return false;
      }
    }
  }
  return true;
}

std::shared_ptr<const std::vector<double>> shared_reference(
    const Jacobi2DProgram& p, int iterations) {
  stencil::Jacobi2D problem;
  problem.nx = p.gx;
  problem.ny = p.gy;
  return stencil::jacobi2d_reference(problem, iterations);
}

}  // namespace

std::vector<double> Jacobi2DProgram::gather(ProgramData& data) const {
  std::vector<double> out(gx * gy);
  visit_points(*this, data, [&out](std::size_t g, double v) {
    out[g] = v;
    return true;
  });
  return out;
}

std::vector<double> Jacobi2DProgram::reference(int iterations) const {
  return *shared_reference(*this, iterations);
}

bool Jacobi2DProgram::matches_reference(ProgramData& data,
                                        int iterations) const {
  const std::shared_ptr<const std::vector<double>> ref =
      shared_reference(*this, iterations);
  return visit_points(*this, data, [&ref](std::size_t g, double v) {
    return v == (*ref)[g];
  });
}

}  // namespace dacelite
