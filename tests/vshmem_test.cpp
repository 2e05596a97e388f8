// Unit tests for the GPU-initiated PGAS library: symmetric allocation,
// put/signal semantics and ordering, nbi + quiet, strided and single-element
// ops and the device-side barrier.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/combinators.hpp"
#include "test_machines.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace {

using sim::Cmp;
using sim::Nanos;
using sim::Task;
using vgpu::KernelCtx;
using vgpu::LaunchConfig;
using vgpu::Machine;
using vgpu::MachineSpec;
using vshmem::Scope;
using vshmem::SignalOp;
using vshmem::SignalSet;
using vshmem::Sym;
using vshmem::World;

/// Round-number spec: link 1 GB/s (1 byte/ns), device latency 50 ns, issue
/// 10 ns, thread-scope efficiency 1/2, strided 1/4, small-op overhead 5 ns.
MachineSpec spec(int devices) { return test_machines::scoped_links(devices); }

/// Runs one single-block kernel body per (device, fn) pair concurrently.
void run_on_devices(
    Machine& m,
    std::vector<std::pair<int, std::function<Task(KernelCtx&)>>> bodies) {
  for (auto& [dev, fn] : bodies) {
    std::vector<vgpu::BlockGroup> groups;
    groups.push_back(vgpu::BlockGroup{"test", 1, std::move(fn)});
    m.engine().spawn(vgpu::run_kernel(m, m.device(dev), 0, LaunchConfig{},
                                      std::move(groups)));
  }
  m.engine().run();
}

TEST(World, InitEnablesAllPeerAccess) {
  Machine m(spec(4));
  World w(m);
  EXPECT_EQ(w.n_pes(), 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_TRUE(m.peer_enabled(i, j));
      }
    }
  }
}

TEST(World, SymmetricAllocationPerPe) {
  Machine m(spec(3));
  World w(m);
  Sym<double> a = w.alloc<double>(32, "halo");
  EXPECT_EQ(a.n_pes(), 3);
  EXPECT_EQ(a.size(), 32u);
  a.on(0)[0] = 1.0;
  a.on(1)[0] = 2.0;
  EXPECT_EQ(a.on(0)[0], 1.0);  // instances are distinct storage
  EXPECT_EQ(a.on(1)[0], 2.0);
  EXPECT_EQ(a.on(2)[0], 0.0);
}

TEST(Putmem, BlockingCopiesDataWithBlockScopeTiming) {
  Machine m(spec(2));
  World w(m);
  Sym<double> a = w.alloc<double>(16, "a");
  for (std::size_t i = 0; i < 16; ++i) a.on(0)[i] = static_cast<double>(i);
  Nanos done = -1;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.putmem(k, a, /*src_off=*/4, /*dst_off=*/8, /*count=*/4, 1);
    done = k.now();
  };
  run_on_devices(m, {{0, body}});
  // issue 10 + wire 32 bytes + latency 50 = 92.
  EXPECT_EQ(done, 92);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.on(1)[8 + i], static_cast<double>(4 + i));
  }
}

TEST(Putmem, ThreadScopeIsSlowerThanBlockScope) {
  Machine m(spec(2));
  World w(m);
  Sym<double> a = w.alloc<double>(64, "a");
  Nanos t_thread = -1;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.putmem(k, a, 0, 0, 32, 1, Scope::kThread);
    t_thread = k.now();
  };
  run_on_devices(m, {{0, body}});
  // 256 bytes at half efficiency -> 512 ns wire; 10 + 512 + 50 = 572.
  EXPECT_EQ(t_thread, 572);
}

TEST(PutmemNbi, ReturnsAfterIssueAndQuietCompletes) {
  Machine m(spec(2));
  World w(m);
  Sym<double> a = w.alloc<double>(128, "a");
  a.on(0)[0] = 7.0;
  Nanos after_issue = -1;
  Nanos after_quiet = -1;
  bool data_there_at_issue = true;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.putmem_nbi(k, a, 0, 0, 128, 1);
    after_issue = k.now();
    data_there_at_issue = (a.on(1)[0] == 7.0);
    co_await w.quiet(k);
    after_quiet = k.now();
  };
  run_on_devices(m, {{0, body}});
  EXPECT_EQ(after_issue, 10);              // only the descriptor cost
  EXPECT_FALSE(data_there_at_issue);       // payload still in flight
  // Transfer: issue 10 + 1024 bytes + 50 = 1084 ns end-to-end.
  EXPECT_EQ(after_quiet, 1084);
  EXPECT_EQ(a.on(1)[0], 7.0);
  EXPECT_EQ(w.outstanding_nbi(0), 0);
}

TEST(PutmemNbi, OutstandingCountTracksInFlightOps) {
  Machine m(spec(2));
  World w(m);
  Sym<double> a = w.alloc<double>(64, "a");
  std::int64_t outstanding_mid = -1;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.putmem_nbi(k, a, 0, 0, 64, 1);
    co_await w.putmem_nbi(k, a, 0, 0, 64, 1);
    outstanding_mid = w.outstanding_nbi(0);
    co_await w.quiet(k);
  };
  run_on_devices(m, {{0, body}});
  EXPECT_EQ(outstanding_mid, 2);
  EXPECT_EQ(w.outstanding_nbi(0), 0);
}

TEST(PutmemSignal, SignalVisibleOnlyAfterPayload) {
  Machine m(spec(2));
  World w(m);
  Sym<double> a = w.alloc<double>(8, "a");
  auto sig = w.alloc_signals(2);
  a.on(0)[0] = 3.25;
  double seen = -1.0;
  Nanos recv_time = -1;
  auto sender = [&](KernelCtx& k) -> Task {
    co_await w.putmem_signal_nbi(k, a, 0, 0, 8, *sig, 0, 1, SignalOp::kSet, 1);
    // sender continues immediately; no quiet needed for correctness at the
    // receiver because the signal is ordered after the payload.
  };
  auto receiver = [&](KernelCtx& k) -> Task {
    co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 1);
    seen = a.on(1)[0];
    recv_time = k.now();
  };
  run_on_devices(m, {{0, sender}, {1, receiver}});
  EXPECT_EQ(seen, 3.25);
  // payload lands at issue 10 + 64 B + 50 = 124; + poll 1 = 125.
  EXPECT_EQ(recv_time, 125);
}

TEST(PutmemSignal, AddAccumulatesAcrossSenders) {
  Machine m(spec(3));
  World w(m);
  Sym<double> a = w.alloc<double>(4, "a");
  auto sig = w.alloc_signals(1);
  auto sender = [&](KernelCtx& k) -> Task {
    co_await w.putmem_signal_nbi(k, a, 0, 0, 1, *sig, 0, 1, SignalOp::kAdd, 2);
    co_await w.quiet(k);
  };
  int seen_value = -1;
  auto receiver = [&](KernelCtx& k) -> Task {
    co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, 2);
    seen_value = static_cast<int>(sig->at(2, 0).value());
  };
  run_on_devices(m, {{0, sender}, {1, sender}, {2, receiver}});
  EXPECT_EQ(seen_value, 2);
}

TEST(World, DrainedWaitsForAFaultDelayedSignal) {
  // The fault plane postpones every signal. The sender's quiet() completes
  // the payload and its kernel returns, but the delayed signal apply still
  // touches the World and its flags: only once it has run may the World be
  // destroyed.
  MachineSpec s = spec(2);
  s.faults.seed = 1;
  s.faults.rate = 1.0;
  s.faults.classes = fault::kClassSignalDelay;
  s.faults.signal_delay = 1000;
  Machine m(s);
  World w(m);
  Sym<double> a = w.alloc<double>(8, "a");
  auto sig = w.alloc_signals(1);
  EXPECT_TRUE(w.drained());
  auto sender = [&](KernelCtx& k) -> Task {
    co_await w.putmem_signal_nbi(k, a, 0, 0, 8, *sig, 0, 1, SignalOp::kSet, 1);
    co_await w.quiet(k);
  };
  bool drained_at_kernel_end = true;
  std::int64_t signal_at_kernel_end = -1;
  bool drained_when_signalled = false;
  auto issuer = [&]() -> Task {
    std::vector<vgpu::BlockGroup> groups;
    groups.push_back(vgpu::BlockGroup{"sender", 1, sender});
    co_await vgpu::run_kernel(m, m.device(0), 0, LaunchConfig{},
                              std::move(groups));
    drained_at_kernel_end = w.drained();
    signal_at_kernel_end = sig->at(1, 0).value();
  };
  auto watcher = [&]() -> Task {
    co_await sig->at(1, 0).wait_geq(1);
    drained_when_signalled = w.drained();
  };
  m.engine().spawn(issuer());
  m.engine().spawn(watcher());
  m.engine().run();
  EXPECT_EQ(w.outstanding_nbi(0), 0);
  EXPECT_FALSE(drained_at_kernel_end);
  EXPECT_EQ(signal_at_kernel_end, 0);
  EXPECT_TRUE(drained_when_signalled);
  EXPECT_TRUE(w.drained());
}

TEST(World, DestroyingAWorldFreesItsSymmetricHeap) {
  Machine m(spec(2));
  const std::size_t machine_bytes = m.live_bytes();
  {
    World w(m);
    Sym<double> a = w.alloc<double>(16, "a");
    Sym<int> b = w.alloc<int>(4, "b");
    EXPECT_EQ(m.live_bytes(), machine_bytes + 2 * (16 * 8 + 4 * 4));
  }
  EXPECT_EQ(m.live_bytes(), machine_bytes);
  EXPECT_EQ(m.peak_bytes(), machine_bytes + 2 * (16 * 8 + 4 * 4));
}

TEST(World, DestroyingAWorldReleasesItsStreamsAndLanes) {
  // A world's streams live as long as the world, and so do their job-map
  // lanes; lane numbers are never handed out again, so actor names stay
  // unambiguous for the machine's whole life.
  Machine m(spec(2));
  sim::JobMap jobs;
  m.engine().set_job_map(&jobs);
  int last_lane = -1;
  {
    World w(m, {1, 0}, "j0:t0:stencil");
    vgpu::Stream& a = w.create_stream(0);
    vgpu::Stream& b = w.create_stream(0);
    vgpu::Stream& c = w.create_stream(1);
    EXPECT_EQ(&a.device(), &m.device(1));
    EXPECT_EQ(&c.device(), &m.device(0));
    EXPECT_EQ(m.device(1).stream_count(), 2u);
    EXPECT_EQ(m.device(0).stream_count(), 1u);
    EXPECT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs.find_lane(1, b.lane()), "j0:t0:stencil");
    last_lane = b.lane();
  }
  EXPECT_EQ(m.device(0).stream_count(), 0u);
  EXPECT_EQ(m.device(1).stream_count(), 0u);
  EXPECT_EQ(jobs.size(), 0u);
  EXPECT_EQ(jobs.find_lane(1, last_lane), "");
  EXPECT_EQ(m.device(1).create_stream().lane(), last_lane + 1);
}

TEST(SignalOp, RemoteSetWithoutPayload) {
  Machine m(spec(2));
  World w(m);
  auto sig = w.alloc_signals(1);
  Nanos done = -1;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.signal_op(k, *sig, 0, 42, SignalOp::kSet, 1);
    done = k.now();
  };
  run_on_devices(m, {{0, body}});
  EXPECT_EQ(sig->at(1, 0).value(), 42);
  // small-op overhead 5 + issue 10 + 8 bytes + latency 50 = 73.
  EXPECT_EQ(done, 73);
}

TEST(Iput, StridedCopyIsCorrectAndSlowerThanContiguous) {
  Machine m(spec(2));
  World w(m);
  // 4x4 row-major grid; send column 1 of PE0 into column 2 of PE1.
  Sym<double> grid = w.alloc<double>(16, "grid");
  for (std::size_t i = 0; i < 16; ++i) grid.on(0)[i] = static_cast<double>(i);
  Nanos t_iput = -1;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.iput(k, grid, /*src_off=*/1, /*src_stride=*/4, /*dst_off=*/2,
                    /*dst_stride=*/4, /*count=*/4, 1);
    t_iput = k.now();
  };
  run_on_devices(m, {{0, body}});
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(grid.on(1)[r * 4 + 2], static_cast<double>(r * 4 + 1));
  }
  // 32 bytes at quarter efficiency -> 128 ns wire; 10 + 128 + 50 = 188,
  // versus contiguous 10 + 32 + 50 = 92.
  EXPECT_EQ(t_iput, 188);
}

TEST(P, SingleElementPut) {
  Machine m(spec(2));
  World w(m);
  Sym<double> a = w.alloc<double>(4, "a");
  Nanos done = -1;
  auto body = [&](KernelCtx& k) -> Task {
    co_await w.p(k, a, 3, 9.5, 1);
    done = k.now();
  };
  run_on_devices(m, {{0, body}});
  EXPECT_EQ(a.on(1)[3], 9.5);
  // overhead 5 + issue 10 + 8 bytes + 50 = 73.
  EXPECT_EQ(done, 73);
}

TEST(Collectives, SyncAllJoinsAllPes) {
  Machine m(spec(4));
  World w(m);
  std::vector<Nanos> after(4, -1);
  std::vector<std::pair<int, std::function<Task(KernelCtx&)>>> bodies;
  for (int d = 0; d < 4; ++d) {
    bodies.emplace_back(d, [&, d](KernelCtx& k) -> Task {
      co_await k.engine().delay(d * 100);
      co_await w.sync_all(k);
      after[static_cast<std::size_t>(d)] = k.now();
    });
  }
  run_on_devices(m, std::move(bodies));
  // Last arrival at 300, + 2 dissemination rounds * (50 + 5) = 410.
  for (Nanos t : after) EXPECT_EQ(t, 410);
}

TEST(SignalWait, ComparisonVariants) {
  Machine m(spec(2));
  World w(m);
  auto sig = w.alloc_signals(1);
  std::vector<int> woke;
  auto waiter = [&](KernelCtx& k) -> Task {
    co_await w.signal_wait_until(k, *sig, 0, Cmp::kEq, 3);
    woke.push_back(1);
  };
  auto signaler = [&](KernelCtx& k) -> Task {
    co_await w.signal_op(k, *sig, 0, 1, SignalOp::kSet, 1);
    co_await w.signal_op(k, *sig, 0, 3, SignalOp::kSet, 1);
  };
  run_on_devices(m, {{1, waiter}, {0, signaler}});
  EXPECT_EQ(woke.size(), 1u);
}

// Property sweep: an iterative ring exchange with the paper's flag protocol
// (flag value == iteration, §4.1.1) never reads a stale halo, for any PE
// count and iteration count. Each PE publishes its value into the right
// neighbour's inbox with a signaled put, waits for its own inbox signal, and
// accumulates: v_d(t) = v_d(t-1) + v_{d-1}(t-1). The result is compared
// against a serial reference.
class RingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingSweep, FlagIterationProtocolNeverReadsStale) {
  const int n = std::get<0>(GetParam());
  const int iters = std::get<1>(GetParam());
  Machine m(spec(n));
  World w(m);
  // One symmetric array holds both mailboxes: [0] = inbox, [1] = outbox
  // (puts copy within one symmetric allocation, as in NVSHMEM where both
  // ends must be symmetric addresses).
  auto sig = w.alloc_signals(1);
  std::vector<double> value(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) value[static_cast<std::size_t>(d)] = d + 1.0;

  Sym<double> box = w.alloc<double>(2, "box");
  std::vector<std::pair<int, std::function<Task(KernelCtx&)>>> bodies;
  for (int d = 0; d < n; ++d) {
    bodies.emplace_back(d, [&, d](KernelCtx& k) -> Task {
      const int right = (d + 1) % n;
      for (int t = 1; t <= iters; ++t) {
        box.on(d)[1] = value[static_cast<std::size_t>(d)];  // outbox slot
        co_await w.putmem_signal_nbi(k, box, /*src_off=*/1, /*dst_off=*/0,
                                     /*count=*/1, *sig, 0, t, SignalOp::kSet,
                                     right);
        co_await w.signal_wait_until(k, *sig, 0, Cmp::kGe, t);
        value[static_cast<std::size_t>(d)] += box.on(d)[0];  // inbox slot
        co_await w.sync_all(k);
      }
    });
  }
  run_on_devices(m, std::move(bodies));

  // Serial reference of the same recurrence.
  std::vector<double> ref(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) ref[static_cast<std::size_t>(d)] = d + 1.0;
  for (int t = 0; t < iters; ++t) {
    std::vector<double> prev = ref;
    for (int d = 0; d < n; ++d) {
      const int left = (d - 1 + n) % n;
      ref[static_cast<std::size_t>(d)] =
          prev[static_cast<std::size_t>(d)] + prev[static_cast<std::size_t>(left)];
    }
  }
  for (int d = 0; d < n; ++d) {
    EXPECT_EQ(value[static_cast<std::size_t>(d)], ref[static_cast<std::size_t>(d)])
        << "PE " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RingSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 8), ::testing::Values(1, 3, 10)));

}  // namespace
