// Reference-memo suite (`ctest -L irregular`): sim::Memo computes each key
// once per process even when sweep workers ask for it concurrently, never
// caches a failure, and hands out independent copies; the histogram and
// sparse-CG references and the shared histogram edge table key on exactly
// the fields they read plus the rank count, and the CG reference keys its
// operator too. The Jacobi2D reference, shared by stencil and dacelite
// jobs, keys on (nx, ny, iterations).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dacelite/frontend.hpp"
#include "sim/memo.hpp"
#include "sim/observe.hpp"
#include "solvers/cg.hpp"
#include "solvers/sparse_cg.hpp"
#include "stencil/problems.hpp"
#include "stencil/slab.hpp"
#include "vgpu/costmodel.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

constexpr int kThreads = 8;

/// Runs `body(i)` on kThreads threads released together, and returns once
/// all have finished.
void run_together(const std::function<void(int)>& body) {
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&start, &body, i] {
      start.arrive_and_wait();
      body(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Blocks the first computation until every thread has announced itself,
/// then lingers so the others are parked on the pending entry.
void hold_until_all_arrived(const std::atomic<int>& arrived) {
  while (arrived.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(Memo, ConcurrentCallersOfOneKeyComputeItOnce) {
  sim::Memo<int, std::vector<double>> memo;
  std::atomic<int> arrived{0};
  std::atomic<int> calls{0};
  std::vector<std::vector<double>> got(kThreads);
  run_together([&](int i) {
    ++arrived;
    got[static_cast<std::size_t>(i)] = memo.get(7, [&] {
      ++calls;
      hold_until_all_arrived(arrived);
      return std::vector<double>{1.0, 2.5, -3.0};
    });
  });
  EXPECT_EQ(calls.load(), 1);
  for (const auto& v : got) EXPECT_EQ(v, got.front());
  EXPECT_EQ(got.front(), (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST(Memo, FailureReachesEveryWaiterAndTheNextCallRetries) {
  sim::Memo<int, int> memo;
  std::atomic<int> arrived{0};
  std::atomic<int> calls{0};
  std::vector<std::string> errors(kThreads);
  run_together([&](int i) {
    ++arrived;
    try {
      (void)memo.get(1, [&]() -> int {
        const int attempt = ++calls;
        hold_until_all_arrived(arrived);
        throw std::runtime_error("attempt " + std::to_string(attempt));
      });
    } catch (const std::runtime_error& e) {
      errors[static_cast<std::size_t>(i)] = e.what();
    }
  });
  EXPECT_EQ(calls.load(), 1);
  for (const std::string& e : errors) EXPECT_EQ(e, "attempt 1");

  // Not cached: the next call computes afresh, and its success is.
  EXPECT_EQ(memo.get(1, [&] { return ++calls; }), 2);
  EXPECT_EQ(memo.get(1, [&] { return ++calls; }), 2);
  EXPECT_EQ(calls.load(), 2);
}

TEST(Memo, EditingAReturnedCopyLeavesLaterHitsIntact) {
  sim::Memo<int, std::vector<double>> memo;
  auto first = memo.get(3, [] { return std::vector<double>{4.0, 5.0}; });
  first[0] += 1.0;
  EXPECT_EQ(memo.get(3, [] { return std::vector<double>{}; }),
            (std::vector<double>{4.0, 5.0}));
}

// --- Reference keys -----------------------------------------------------------

template <class Config>
struct Edit {
  const char* field;
  std::function<void(Config&)> apply;
};

workloads::HistogramConfig base_hist() {
  workloads::HistogramConfig cfg;
  cfg.bins = 97;
  cfg.keys_per_round = 512;
  cfg.rounds = 4;
  cfg.skew = 2;
  return cfg;
}

TEST(ReferenceMemo, HistogramKeyedFieldsChangeTheReference) {
  using Cfg = workloads::HistogramConfig;
  const std::vector<double> ref = workloads::histogram_reference(base_hist(), 3);
  const Edit<Cfg> edits[] = {
      {"bins", [](Cfg& c) { c.bins = 101; }},
      {"keys_per_round", [](Cfg& c) { c.keys_per_round = 500; }},
      {"rounds", [](Cfg& c) { c.rounds = 3; }},
      {"skew", [](Cfg& c) { c.skew = 0; }},
      {"seed", [](Cfg& c) { c.seed = 43; }},
  };
  for (const Edit<Cfg>& e : edits) {
    Cfg cfg = base_hist();
    e.apply(cfg);
    EXPECT_NE(workloads::histogram_reference(cfg, 3), ref) << e.field;
  }
  EXPECT_NE(workloads::histogram_reference(base_hist(), 4), ref) << "ranks";
}

TEST(ReferenceMemo, HistogramRunOptionsLeaveTheReferenceIdentical) {
  using Cfg = workloads::HistogramConfig;
  const std::vector<double> ref = workloads::histogram_reference(base_hist(), 3);
  sim::Observer observer;
  const Edit<Cfg> edits[] = {
      {"functional", [](Cfg& c) { c.functional = false; }},
      {"trace", [](Cfg& c) { c.trace = false; }},
      {"threads_per_block", [](Cfg& c) { c.threads_per_block = 64; }},
      {"persistent_blocks", [](Cfg& c) { c.persistent_blocks = 3; }},
      {"observer", [&observer](Cfg& c) { c.observer = &observer; }},
  };
  for (const Edit<Cfg>& e : edits) {
    Cfg cfg = base_hist();
    e.apply(cfg);
    EXPECT_EQ(workloads::histogram_reference(cfg, 3), ref) << e.field;
  }
}

solvers::SparseCgConfig base_sparse() {
  solvers::SparseCgConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.max_iterations = 40;
  cfg.tolerance = 1e-10;
  cfg.imbalance = 4.0;
  return cfg;
}

bool same(const solvers::CgResult& a, const solvers::CgResult& b) {
  return a.iterations_run == b.iterations_run && a.final_rr == b.final_rr &&
         a.rr_history == b.rr_history;
}

TEST(ReferenceMemo, SparseKeyedFieldsChangeTheReference) {
  using Cfg = solvers::SparseCgConfig;
  const solvers::CgResult ref = solvers::sparse_cg_reference(base_sparse(), 4);
  const Edit<Cfg> edits[] = {
      {"nx", [](Cfg& c) { c.nx = 20; }},
      {"ny", [](Cfg& c) { c.ny = 28; }},
      {"max_iterations", [](Cfg& c) { c.max_iterations = 30; }},
      {"tolerance", [](Cfg& c) { c.tolerance = 1e-2; }},
      {"imbalance", [](Cfg& c) { c.imbalance = 1.0; }},
  };
  for (const Edit<Cfg>& e : edits) {
    Cfg cfg = base_sparse();
    e.apply(cfg);
    EXPECT_FALSE(same(solvers::sparse_cg_reference(cfg, 4), ref)) << e.field;
  }
  EXPECT_FALSE(same(solvers::sparse_cg_reference(base_sparse(), 2), ref))
      << "ranks";
}

TEST(ReferenceMemo, SparseRunOptionsLeaveTheReferenceIdentical) {
  using Cfg = solvers::SparseCgConfig;
  const solvers::CgResult ref = solvers::sparse_cg_reference(base_sparse(), 4);
  sim::Observer observer;
  const Edit<Cfg> edits[] = {
      {"functional", [](Cfg& c) { c.functional = false; }},
      {"trace", [](Cfg& c) { c.trace = false; }},
      {"threads_per_block", [](Cfg& c) { c.threads_per_block = 128; }},
      {"persistent_blocks", [](Cfg& c) { c.persistent_blocks = 3; }},
      {"observer", [&observer](Cfg& c) { c.observer = &observer; }},
  };
  for (const Edit<Cfg>& e : edits) {
    Cfg cfg = base_sparse();
    e.apply(cfg);
    EXPECT_TRUE(same(solvers::sparse_cg_reference(cfg, 4), ref)) << e.field;
  }
}

TEST(ReferenceMemo, StencilAndCsrReferencesKeyTheOperator) {
  // At imbalance 1 the matrix-free and the CSR reference share every other
  // keyed field, yet their bits differ: the two operators add the same five
  // terms in different orders. Whichever is computed first, each must equal
  // its own uncached computation, a distributed run that never reads the
  // memo.
  const exec::Plan csr_plan{exec::LaunchPolicy::kPersistent,
                            exec::CommPolicy::kSignaledPut,
                            exec::SyncPolicy::kIterationFlags,
                            "sparse_cg_cpufree"};
  for (const bool stencil_first : {true, false}) {
    const int ranks = stencil_first ? 2 : 3;
    solvers::CgConfig stencil;
    stencil.nx = 24;
    stencil.ny = 24;
    stencil.max_iterations = 40;
    stencil.tolerance = 1e-10;
    stencil.persistent_blocks = 12;
    solvers::SparseCgConfig csr;
    csr.nx = stencil.nx;
    csr.ny = stencil.ny;
    csr.max_iterations = stencil.max_iterations;
    csr.tolerance = stencil.tolerance;
    csr.persistent_blocks = stencil.persistent_blocks;
    csr.imbalance = 1.0;
    solvers::CgResult stencil_ref, csr_ref;
    if (stencil_first) {
      stencil_ref = solvers::cg_reference(stencil, ranks);
      csr_ref = solvers::sparse_cg_reference(csr, ranks);
    } else {
      csr_ref = solvers::sparse_cg_reference(csr, ranks);
      stencil_ref = solvers::cg_reference(stencil, ranks);
    }
    const vgpu::MachineSpec spec = vgpu::MachineSpec::hgx_a100(ranks);
    EXPECT_TRUE(same(stencil_ref, solvers::run_cg_cpufree(spec, stencil)))
        << "ranks " << ranks;
    EXPECT_TRUE(same(csr_ref, solvers::run_sparse_cg(spec, csr, csr_plan)))
        << "ranks " << ranks;
    EXPECT_NE(stencil_ref.final_rr, csr_ref.final_rr) << "ranks " << ranks;
    if (ranks == 2) {
      EXPECT_EQ(stencil_ref.final_rr, 5.3087353361933845e-05);
      EXPECT_EQ(csr_ref.final_rr, 5.3087353361933561e-05);
    }
  }
}

/// Key-order accumulation of the same streams, and the per-owner key counts
/// behind the imbalance factor: both independent of the edge table.
struct Naive {
  std::vector<double> bins;
  double imbalance = 1.0;
};

Naive naive_histogram(const workloads::HistogramConfig& cfg, int ranks) {
  Naive out;
  out.bins.assign(cfg.bins, 0.0);
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::size_t> counts(n, 0);
  for (int t = 1; t <= cfg.rounds; ++t) {
    for (int pe = 0; pe < ranks; ++pe) {
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        const std::size_t bin = workloads::histogram_key_bin(cfg, pe, t, i);
        out.bins[bin] += workloads::histogram_key_weight(cfg, pe, t, i);
        // Slab owner split: base bins each, the remainder to the low owners.
        const std::size_t base = cfg.bins / n;
        const std::size_t big = cfg.bins % n;
        const std::size_t owner = bin < big * (base + 1)
                                      ? bin / (base + 1)
                                      : big + (bin - big * (base + 1)) / base;
        ++counts[owner];
      }
    }
  }
  double total = 0.0, peak = 0.0;
  for (std::size_t c : counts) {
    total += static_cast<double>(c);
    peak = std::max(peak, static_cast<double>(c));
  }
  out.imbalance = peak / (total / static_cast<double>(n));
  return out;
}

TEST(EdgeTableMemo, EveryKeyedFieldReachesTheSharedTable) {
  // Runs and the reference read one shared edge table per key, so a key
  // that missed a field would hand both the same stale table and they would
  // still agree. Check each keyed field against tallies that never read it.
  // A key's owner is the count of slices that start at or below its bin, so
  // the bin counts also take uneven splits and splits with more owners than
  // bins, whose trailing owners own nothing at start == bins.
  using Cfg = workloads::HistogramConfig;
  const Edit<Cfg> edits[] = {
      {"base", [](Cfg&) {}},
      {"bins", [](Cfg& c) { c.bins = 101; }},
      {"bins 1", [](Cfg& c) { c.bins = 1; }},
      {"bins 2", [](Cfg& c) { c.bins = 2; }},
      {"bins 3", [](Cfg& c) { c.bins = 3; }},
      {"bins 5", [](Cfg& c) { c.bins = 5; }},
      {"bins 7", [](Cfg& c) { c.bins = 7; }},
      {"bins 2053", [](Cfg& c) { c.bins = 2053; }},
      {"keys_per_round", [](Cfg& c) { c.keys_per_round = 500; }},
      {"rounds", [](Cfg& c) { c.rounds = 3; }},
      {"skew", [](Cfg& c) { c.skew = 0; }},
      {"seed", [](Cfg& c) { c.seed = 43; }},
  };
  for (int ranks = 1; ranks <= 8; ++ranks) {
    for (const Edit<Cfg>& e : edits) {
      Cfg cfg = base_hist();
      e.apply(cfg);
      const Naive naive = naive_histogram(cfg, ranks);
      const std::vector<double> ref = workloads::histogram_reference(cfg, ranks);
      ASSERT_EQ(ref.size(), naive.bins.size()) << e.field;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(ref[i], naive.bins[i], 1e-12 * (1.0 + naive.bins[i]))
            << e.field << " ranks " << ranks << " bin " << i;
      }
      EXPECT_EQ(workloads::histogram_imbalance(cfg, ranks), naive.imbalance)
          << e.field << " ranks " << ranks;
    }
  }
}

struct Jacobi2DShape {
  std::size_t nx;
  std::size_t ny;
  int iterations;
};

/// The memoized Jacobi2D reference of each shape, asked in the given order,
/// equals a fresh serial run. The shapes differ from each other in one
/// keyed field at a time, so a key that dropped a field would hand one
/// shape another's cached reference.
void expect_jacobi2d_memo_matches_fresh(
    const std::vector<Jacobi2DShape>& shapes) {
  for (const Jacobi2DShape& s : shapes) {
    stencil::Jacobi2D p;
    p.nx = s.nx;
    p.ny = s.ny;
    EXPECT_EQ(*stencil::jacobi2d_reference(p, s.iterations),
              stencil::serial_reference(p, s.iterations))
        << s.nx << 'x' << s.ny << " x" << s.iterations;
  }
}

TEST(ReferenceMemo, Jacobi2DMemoMatchesFreshWhicheverShapeComesFirst) {
  // Two disjoint shape sets, one asked in increasing and one in decreasing
  // order, so either member of every one-field pair is cached first.
  expect_jacobi2d_memo_matches_fresh(
      {{16, 12, 3}, {20, 12, 3}, {20, 14, 3}, {20, 14, 5}});
  expect_jacobi2d_memo_matches_fresh(
      {{30, 22, 7}, {30, 22, 4}, {30, 18, 4}, {26, 18, 4}});
}

TEST(ReferenceMemo, DaceliteJacobi2DSharesTheStencilReference) {
  // The dacelite program solves stencil::Jacobi2D on its global domain, so
  // its reference is the stencil one whatever the process grid: fresh
  // serial runs must match it for every grid and shape.
  for (const int ranks : {1, 2, 4}) {
    for (const std::size_t g : {std::size_t{24}, std::size_t{48}}) {
      for (const int iterations : {2, 6}) {
        const dacelite::Jacobi2DProgram prog =
            dacelite::make_jacobi2d(g, ranks, iterations);
        stencil::Jacobi2D p;
        p.nx = prog.gx;
        p.ny = prog.gy;
        EXPECT_EQ(prog.reference(iterations),
                  stencil::serial_reference(p, iterations))
            << g << " on " << ranks << " ranks x" << iterations;
      }
    }
  }
}

}  // namespace
