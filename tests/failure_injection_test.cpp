// Failure-injection tests: demonstrate that each synchronization mechanism
// in the CPU-Free protocol is load-bearing by removing it and observing the
// failure the simulator surfaces (wrong numerics, deadlock, or a thrown
// protocol error). These are the "what breaks without X" counterparts to the
// happy-path correctness tests.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cpufree/halo.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "sim/combinators.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace {

using sim::Task;
using vgpu::BlockGroup;
using vgpu::KernelCtx;
using vgpu::Machine;
using vgpu::MachineSpec;

MachineSpec spec(int n) {
  MachineSpec s = MachineSpec::hgx_a100(n);
  return s;
}

/// Two PEs run a 2-iteration producer/consumer exchange. With the iteration
/// flag protocol the consumer always reads the value of the right iteration;
/// without the wait (injected fault) it reads a stale value.
TEST(Inject, MissingSignalWaitReadsStaleHalo) {
  for (bool wait_enabled : {true, false}) {
    Machine m(spec(2));
    vshmem::World w(m);
    vshmem::Sym<double> box = w.alloc<double>(1, "box");
    auto sig = w.alloc_signals(1);
    std::vector<double> seen;

    auto producer = [&](KernelCtx& k) -> Task {
      for (int t = 1; t <= 2; ++t) {
        box.on(0)[0] = 10.0 * t;  // value of iteration t
        co_await w.putmem_signal_nbi(k, box, 0, 0, 1, *sig, 0, t,
                                     vshmem::SignalOp::kSet, 1);
        // Give iteration 2 extra simulated latency so an unsynchronized
        // consumer races ahead.
        co_await k.engine().delay(sim::usec(50));
      }
    };
    auto consumer = [&, wait_enabled](KernelCtx& k) -> Task {
      for (int t = 1; t <= 2; ++t) {
        if (wait_enabled) {
          co_await w.signal_wait_until(k, *sig, 0, sim::Cmp::kGe, t);
        } else {
          co_await k.engine().delay(sim::usec(2));  // "hope it arrived"
        }
        seen.push_back(box.on(1)[0]);
      }
    };
    std::vector<BlockGroup> g0, g1;
    g0.push_back(BlockGroup{"prod", 1, producer});
    g1.push_back(BlockGroup{"cons", 1, consumer});
    m.engine().spawn(vgpu::run_kernel(m, m.device(0), 0, vgpu::LaunchConfig{},
                                      std::move(g0)));
    m.engine().spawn(vgpu::run_kernel(m, m.device(1), 0, vgpu::LaunchConfig{},
                                      std::move(g1)));
    m.engine().run();
    ASSERT_EQ(seen.size(), 2u);
    if (wait_enabled) {
      EXPECT_EQ(seen[0], 10.0);
      EXPECT_EQ(seen[1], 20.0);
    } else {
      // The fault manifests: iteration 2 read the stale iteration-1 value.
      EXPECT_EQ(seen[1], 10.0);
    }
  }
}

/// A cooperative kernel whose groups disagree on the number of grid.sync()
/// calls deadlocks — and the engine DETECTS it instead of hanging.
TEST(Inject, MismatchedGridSyncCountsDeadlockDetected) {
  Machine m(spec(1));
  std::vector<BlockGroup> groups;
  groups.push_back(BlockGroup{"two_syncs", 1, [](KernelCtx& k) -> Task {
                                co_await k.grid_sync();
                                co_await k.grid_sync();
                              }});
  groups.push_back(BlockGroup{"one_sync", 1, [](KernelCtx& k) -> Task {
                                co_await k.grid_sync();
                              }});
  m.engine().spawn(vgpu::run_kernel(m, m.device(0), 0,
                                    vgpu::LaunchConfig{.cooperative = true},
                                    std::move(groups)));
  EXPECT_THROW(m.engine().run(), sim::DeadlockError);
}

/// A receiver waiting on a flag nobody ever signals deadlocks detectably.
TEST(Inject, MissingSignalDeadlockDetected) {
  Machine m(spec(2));
  vshmem::World w(m);
  auto sig = w.alloc_signals(1);
  std::vector<BlockGroup> g;
  g.push_back(BlockGroup{"waiter", 1, [&](KernelCtx& k) -> Task {
                           co_await w.signal_wait_until(k, *sig, 0,
                                                        sim::Cmp::kGe, 1);
                         }});
  m.engine().spawn(vgpu::run_kernel(m, m.device(1), 0, vgpu::LaunchConfig{},
                                    std::move(g)));
  EXPECT_THROW(m.engine().run(), sim::DeadlockError);
}

/// nbi puts without quiet are not guaranteed complete: a barrier-free reader
/// on the SAME PE may observe the payload missing; quiet() fixes it.
TEST(Inject, NbiWithoutQuietIsUnordered) {
  for (bool use_quiet : {true, false}) {
    Machine m(spec(2));
    vshmem::World w(m);
    vshmem::Sym<double> box = w.alloc<double>(64, "box");
    box.on(0)[0] = 7.0;
    double observed = -1.0;
    sim::Flag ready(m.engine(), 0);

    auto sender = [&, use_quiet](KernelCtx& k) -> Task {
      co_await w.putmem_nbi(k, box, 0, 0, 64, 1);
      if (use_quiet) co_await w.quiet(k);
      ready.set(1);  // tell the observer "I think it's done"
    };
    auto observer = [&](KernelCtx& k) -> Task {
      co_await k.spin_wait(ready, sim::Cmp::kGe, 1, "ready");
      observed = box.on(1)[0];
    };
    std::vector<BlockGroup> g0, g1;
    g0.push_back(BlockGroup{"send", 1, sender});
    g1.push_back(BlockGroup{"obs", 1, observer});
    m.engine().spawn(vgpu::run_kernel(m, m.device(0), 0, vgpu::LaunchConfig{},
                                      std::move(g0)));
    m.engine().spawn(vgpu::run_kernel(m, m.device(1), 0, vgpu::LaunchConfig{},
                                      std::move(g1)));
    m.engine().run();
    if (use_quiet) {
      EXPECT_EQ(observed, 7.0);  // quiet guarantees delivery
    } else {
      EXPECT_EQ(observed, 0.0);  // payload still in flight when flag was set
    }
  }
}

/// Transfers to a device without peer access are a programming error the
/// machine reports instead of silently mis-delivering.
TEST(Inject, MissingPeerAccessThrows) {
  Machine m(spec(2));  // no enable_peer_access / no vshmem::World init
  std::vector<BlockGroup> g;
  g.push_back(BlockGroup{"putter", 1, [&](KernelCtx& k) -> Task {
                           co_await k.peer_put(1, 64.0, "bad_put");
                         }});
  m.engine().spawn(vgpu::run_kernel(m, m.device(0), 0, vgpu::LaunchConfig{},
                                    std::move(g)));
  EXPECT_THROW(m.engine().run(), std::logic_error);
}

/// Oversubscribing a cooperative launch must throw BEFORE anything runs (the
/// Cooperative Groups restriction, §4.1.4), including through the CPU-Free
/// launch of exec::run_program.
TEST(Inject, PersistentOversubscriptionRejectedUpfront) {
  Machine m(spec(1));
  vshmem::World w(m);
  const int limit = m.device(0).spec().max_cooperative_blocks(1024);
  bool body_ran = false;
  exec::Program prog{.world = &w,
                     .plan = {exec::LaunchPolicy::kPersistent,
                              exec::CommPolicy::kSignaledPut,
                              exec::SyncPolicy::kIterationFlags, "persistent"}};
  prog.groups = [limit, &body_ran](int, const exec::IterationJoin&) {
    exec::ProgramGroups pg;
    pg.comm.push_back(BlockGroup{"huge", limit + 1, [&](KernelCtx&) -> Task {
                                   body_ran = true;
                                   co_return;
                                 }});
    return pg;
  };
  EXPECT_THROW(exec::run_program(prog), vgpu::CooperativeLaunchError);
  EXPECT_FALSE(body_ran);
}

/// The engine's determinism also covers fault paths: two identical runs that
/// deadlock report the same number of stuck tasks.
TEST(Inject, DeterministicDeadlockDiagnostics) {
  auto stuck_count = [] {
    Machine m(spec(2));
    vshmem::World w(m);
    auto sig = w.alloc_signals(1);
    for (int d = 0; d < 2; ++d) {
      std::vector<BlockGroup> g;
      g.push_back(BlockGroup{"waiter", 1, [&w, &sig](KernelCtx& k) -> Task {
                               co_await w.signal_wait_until(
                                   k, *sig, 0, sim::Cmp::kGe, 1);
                             }});
      m.engine().spawn(vgpu::run_kernel(m, m.device(d), 0,
                                        vgpu::LaunchConfig{}, std::move(g)));
    }
    try {
      m.engine().run();
    } catch (const sim::DeadlockError& e) {
      return e.stuck_tasks;
    }
    return std::size_t{0};
  };
  const auto a = stuck_count();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, stuck_count());
}

}  // namespace
