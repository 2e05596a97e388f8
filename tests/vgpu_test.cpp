// Unit tests for the virtual GPU substrate: cost model, machine/memory/peer
// access, interconnect timing and contention, stream FIFO semantics, events,
// kernel launch, cooperative grid sync, and host API costs.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/combinators.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stream.hpp"

namespace {

using sim::Nanos;
using sim::Task;
using vgpu::BlockGroup;
using vgpu::DeviceSpec;
using vgpu::HostApiCosts;
using vgpu::HostCtx;
using vgpu::KernelCtx;
using vgpu::LaunchConfig;
using vgpu::Machine;
using vgpu::MachineSpec;
using vgpu::MemBlock;
using vgpu::Stream;
using vgpu::TransferKind;

/// A machine with round-number costs so expected times are exact:
/// link: 1 GB/s (1 byte == 1 ns), 100 ns host-initiated latency, 50 ns
/// device-initiated, 10 ns put issue; DRAM 2 GB/s at 100% efficiency.
MachineSpec simple_spec(int devices) {
  MachineSpec s;
  s.num_devices = devices;
  s.device.dram_bw_gbps = 2.0;
  s.device.dram_efficiency = 1.0;
  s.device.grid_sync = 5;
  s.device.spin_poll = 1;
  s.host = HostApiCosts::zero();
  s.link.bw_gbps = 1.0;
  s.link.host_initiated_latency = 100;
  s.link.device_initiated_latency = 50;
  s.link.device_put_issue = 10;
  return s;
}

TEST(CostModel, A100CooperativeBlockLimit) {
  const DeviceSpec a100 = DeviceSpec::a100();
  // 1024-thread blocks: 2048/1024 = 2 per SM * 108 SMs.
  EXPECT_EQ(a100.max_cooperative_blocks(1024), 216);
  EXPECT_EQ(a100.max_cooperative_blocks(256), 8 * 108);
  // Small blocks hit the per-SM resident-block limit (32 on A100) before the
  // thread-count limit: 32-thread blocks give 32 per SM, not 2048/32 = 64.
  EXPECT_EQ(a100.max_cooperative_blocks(32), 32 * 108);
  EXPECT_EQ(a100.max_cooperative_blocks(1), 32 * 108);
  EXPECT_EQ(a100.max_cooperative_blocks(0), 0);
}

TEST(CostModel, SubNanosecondTransfersChargeAtLeastOneNano) {
  vgpu::LinkSpec l;
  l.bw_gbps = 250.0;
  // 4 bytes at 250 GB/s is 0.016 ns of wire time; it must not truncate to a
  // free transfer.
  EXPECT_EQ(l.wire_time(4.0), 1);
  EXPECT_EQ(l.wire_time(0.0), 0);
  EXPECT_EQ(l.staging_time(1.0), 1);
  EXPECT_EQ(l.staging_time(0.0), 0);
  DeviceSpec d;
  d.dram_bw_gbps = 1000.0;
  d.dram_efficiency = 1.0;
  EXPECT_EQ(d.dram_time(8.0), 1);
  // Fractional times round up, never down: 1.5 ns -> 2 ns.
  EXPECT_EQ(d.dram_time(1500.0), 2);
}

TEST(CostModel, DramTimeScalesWithBytesAndFraction) {
  DeviceSpec d;
  d.dram_bw_gbps = 1000.0;  // 1000 bytes/ns
  d.dram_efficiency = 1.0;
  EXPECT_EQ(d.dram_time(1e6), 1000);
  EXPECT_EQ(d.dram_time(1e6, 0.5), 2000);
  EXPECT_EQ(d.dram_time(0.0), 0);
  EXPECT_EQ(d.dram_time(-5.0), 0);
}

TEST(CostModel, WireTime) {
  vgpu::LinkSpec l;
  l.bw_gbps = 250.0;
  EXPECT_EQ(l.wire_time(250.0), 1);
  EXPECT_EQ(l.wire_time(2.5e6), 10'000);
}

TEST(CostModel, HgxPresetHasAllToAllDefaults) {
  const MachineSpec s = MachineSpec::hgx_a100(8);
  EXPECT_EQ(s.num_devices, 8);
  EXPECT_EQ(s.device.sm_count, 108);
  EXPECT_GT(s.link.bw_gbps, 0.0);
  EXPECT_GT(s.host.kernel_launch, 0);
}

TEST(Machine, RejectsNonPositiveDeviceCount) {
  EXPECT_THROW(Machine(MachineSpec::hgx_a100(0)), std::invalid_argument);
}

TEST(Machine, AllocArrayIsZeroInitializedAndTagged) {
  Machine m(simple_spec(2));
  auto arr = m.alloc_array<double>(1, 16, "u");
  EXPECT_EQ(arr.size(), 16u);
  EXPECT_EQ(arr.device(), 1);
  for (double v : arr.span()) EXPECT_EQ(v, 0.0);
  arr[3] = 2.5;
  EXPECT_EQ(arr[3], 2.5);
}

TEST(Machine, AllocOnBadDeviceThrows) {
  Machine m(simple_spec(2));
  EXPECT_THROW(m.alloc_block(2, 8, "x"), std::out_of_range);
  EXPECT_THROW(m.alloc_block(-1, 8, "x"), std::out_of_range);
}

TEST(Machine, TransferWithoutPeerAccessThrows) {
  Machine m(simple_spec(2));
  m.engine().spawn(m.transfer(0, 1, 100, TransferKind::kDeviceInitiated, 0, "t"));
  EXPECT_THROW(m.engine().run(), std::logic_error);
}

TEST(Machine, PeerAccessIsDirectional) {
  Machine m(simple_spec(2));
  m.enable_peer_access(0, 1);
  EXPECT_TRUE(m.peer_enabled(0, 1));
  EXPECT_FALSE(m.peer_enabled(1, 0));
}

TEST(Machine, DeviceInitiatedTransferTiming) {
  Machine m(simple_spec(2));
  m.enable_all_peer_access();
  Nanos done = -1;
  m.engine().spawn([](Machine& mm, Nanos& out) -> Task {
    // issue 10 + wire 200 + latency 50 = 260.
    co_await mm.transfer(0, 1, 200, TransferKind::kDeviceInitiated, 0, "t");
    out = mm.engine().now();
  }(m, done));
  m.engine().run();
  EXPECT_EQ(done, 260);
}

TEST(Machine, HostInitiatedTransferTiming) {
  Machine m(simple_spec(2));
  m.enable_all_peer_access();
  Nanos done = -1;
  m.engine().spawn([](Machine& mm, Nanos& out) -> Task {
    // wire 200 + latency 100 = 300 (no issue cost on host path).
    co_await mm.transfer(0, 1, 200, TransferKind::kHostInitiated, 0, "t");
    out = mm.engine().now();
  }(m, done));
  m.engine().run();
  EXPECT_EQ(done, 300);
}

TEST(Machine, SameLinkTransfersSerialize) {
  Machine m(simple_spec(2));
  m.enable_all_peer_access();
  std::vector<Nanos> done;
  auto sender = [](Machine& mm, std::vector<Nanos>& out) -> Task {
    co_await mm.transfer(0, 1, 1000, TransferKind::kHostInitiated, 0, "a");
    out.push_back(mm.engine().now());
  };
  m.engine().spawn(sender(m, done));
  m.engine().spawn(sender(m, done));
  m.engine().run();
  ASSERT_EQ(done.size(), 2u);
  // First: wire [0,1000] + 100 latency = 1100. Second waits for the wire:
  // wire [1000,2000] + 100 = 2100.
  EXPECT_EQ(done[0], 1100);
  EXPECT_EQ(done[1], 2100);
}

TEST(Machine, DistinctLinksDoNotContend) {
  Machine m(simple_spec(3));
  m.enable_all_peer_access();
  std::vector<Nanos> done;
  auto sender = [](Machine& mm, std::vector<Nanos>& out, int src, int dst) -> Task {
    co_await mm.transfer(src, dst, 1000, TransferKind::kHostInitiated, 0, "x");
    out.push_back(mm.engine().now());
  };
  m.engine().spawn(sender(m, done, 0, 1));
  m.engine().spawn(sender(m, done, 0, 2));  // different directed link
  m.engine().spawn(sender(m, done, 1, 0));  // reverse direction: own link
  m.engine().run();
  ASSERT_EQ(done.size(), 3u);
  for (Nanos t : done) EXPECT_EQ(t, 1100);
}

TEST(Machine, DeliverRunsAtArrival) {
  Machine m(simple_spec(2));
  m.enable_all_peer_access();
  auto src = m.alloc_array<int>(0, 4, "src");
  auto dst = m.alloc_array<int>(1, 4, "dst");
  src[0] = 42;
  Nanos delivered_at = -1;
  m.engine().spawn([](Machine& mm, vgpu::DeviceArray<int> s,
                      vgpu::DeviceArray<int> d, Nanos& at) -> Task {
    co_await mm.transfer(0, 1, 4, TransferKind::kDeviceInitiated, 0, "t",
                         [s, d, &at, &mm]() mutable {
                           d[0] = s[0];
                           at = mm.engine().now();
                         });
  }(m, src, dst, delivered_at));
  m.engine().run();
  EXPECT_EQ(dst[0], 42);
  EXPECT_EQ(delivered_at, 10 + 4 + 50);
}

TEST(Machine, LocalTransferChargesDramOnly) {
  Machine m(simple_spec(1));
  Nanos done = -1;
  m.engine().spawn([](Machine& mm, Nanos& out) -> Task {
    // 2 GB/s DRAM, 2x bytes (read+write): 100 bytes -> 100 ns.
    co_await mm.transfer(0, 0, 100, TransferKind::kDeviceInitiated, 0, "local");
    out = mm.engine().now();
  }(m, done));
  m.engine().run();
  EXPECT_EQ(done, 100);
}

TEST(Machine, HostBarrierJoinsAllHostThreads) {
  MachineSpec spec = simple_spec(3);
  spec.host.host_barrier = 7;
  Machine m(spec);
  std::vector<Nanos> after;
  m.run_host_threads([&](int dev) -> Task {
    co_await m.engine().delay(dev * 100);
    co_await m.host_barrier();
    after.push_back(m.engine().now());
  });
  ASSERT_EQ(after.size(), 3u);
  for (Nanos t : after) EXPECT_EQ(t, 207);  // last arrival 200 + barrier 7
}

TEST(Stream, OpsRunInFifoOrder) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    s.enqueue([&m, &order, i]() -> Task {
      // Later ops get shorter delays; FIFO must still order them.
      co_await m.engine().delay(30 - i * 10);
      order.push_back(i);
    });
  }
  m.engine().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(s.idle());
}

TEST(Stream, TwoStreamsRunConcurrently) {
  Machine m(simple_spec(1));
  Stream& a = m.device(0).create_stream();
  Stream& b = m.device(0).create_stream();
  std::vector<Nanos> done;
  auto op = [&m, &done]() -> Task {
    co_await m.engine().delay(100);
    done.push_back(m.engine().now());
  };
  a.enqueue(op);
  b.enqueue(op);
  m.engine().run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 100);
  EXPECT_EQ(done[1], 100);
}

TEST(Event, CrossStreamDependency) {
  MachineSpec spec = simple_spec(1);
  Machine m(spec);
  Stream& a = m.device(0).create_stream();
  Stream& b = m.device(0).create_stream();
  vgpu::Event ev(m.engine());
  Nanos b_op_ran_at = -1;
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    // Stream a: 100 ns of work, then record.
    a.enqueue([&m]() -> Task { co_await m.engine().delay(100); });
    co_await h.record_event(a, ev);
    // Stream b waits on the event, then runs.
    co_await h.stream_wait_event(b, ev);
    b.enqueue([&m, &b_op_ran_at]() -> Task {
      b_op_ran_at = m.engine().now();
      co_return;
    });
    co_await h.sync_stream(b);
  });
  EXPECT_EQ(b_op_ran_at, 100);
}

TEST(Event, SyncEventWaitsForPublication) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  vgpu::Event ev(m.engine());
  Nanos host_resumed = -1;
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    s.enqueue([&m]() -> Task { co_await m.engine().delay(250); });
    co_await h.record_event(s, ev);
    co_await h.sync_event(ev);
    host_resumed = m.engine().now();
  });
  EXPECT_EQ(host_resumed, 250);
}

TEST(Event, ElapsedTimeBetweenRecords) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  vgpu::Event start(m.engine());
  vgpu::Event stop(m.engine());
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    co_await h.record_event(s, start);
    s.enqueue([&m]() -> Task { co_await m.engine().delay(2'000'000); });
    co_await h.record_event(s, stop);
    co_await h.sync_event(stop);
  });
  EXPECT_DOUBLE_EQ(vgpu::Event::elapsed_ms(start, stop), 2.0);
}

TEST(Event, ElapsedBeforePublishThrows) {
  Machine m(simple_spec(1));
  vgpu::Event a(m.engine());
  vgpu::Event b(m.engine());
  EXPECT_THROW(static_cast<void>(vgpu::Event::elapsed_ms(a, b)),
               std::logic_error);
}

TEST(Trace, SummaryBreaksDownPerDevice) {
  sim::Trace tr;
  tr.record(sim::Cat::kCompute, 0, 0, 0, 600);
  tr.record(sim::Cat::kComm, 0, 0, 600, 800);
  tr.record(sim::Cat::kHostApi, -1, 0, 0, 100);
  const std::string text = tr.summary(1000);
  EXPECT_NE(text.find("gpu  0"), std::string::npos);
  EXPECT_NE(text.find("host"), std::string::npos);
  EXPECT_NE(text.find("60.0%"), std::string::npos);  // compute share
  EXPECT_NE(text.find("20.0%"), std::string::npos);  // comm share
}

TEST(Kernel, LaunchChargesHostAndStartLatency) {
  MachineSpec spec = simple_spec(1);
  spec.host.kernel_launch = 20;
  spec.host.launch_to_start = 30;
  Machine m(spec);
  Stream& s = m.device(0).create_stream();
  Nanos kernel_started = -1;
  Nanos host_after_launch = -1;
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    CO_AWAIT(h.launch_single(s, "k", [&](KernelCtx& k) -> Task {
      kernel_started = k.now();
      co_await k.busy(10, sim::Cat::kCompute, "c");
    }));
    host_after_launch = m.engine().now();
    co_await h.sync_stream(s);
  });
  EXPECT_EQ(host_after_launch, 20);   // host returns after issue cost
  EXPECT_EQ(kernel_started, 50);      // issue 20 + start latency 30
}

TEST(Kernel, CooperativeOverSubscriptionThrows) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  const int limit = m.device(0).spec().max_cooperative_blocks(1024);
  EXPECT_THROW(
      m.run_host_threads([&](int) -> Task {
        HostCtx h(m, 0);
        std::vector<BlockGroup> groups;
        groups.push_back(BlockGroup{"k", limit + 1,
                                    [](KernelCtx&) -> Task { co_return; }});
        CO_AWAIT(h.launch(
            s, LaunchConfig{.threads_per_block = 1024, .cooperative = true},
            std::move(groups)));
        co_await h.sync_stream(s);
      }),
      vgpu::CooperativeLaunchError);
}

TEST(Kernel, NonCooperativeAllowsOversubscription) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  const int limit = m.device(0).spec().max_cooperative_blocks(1024);
  bool ran = false;
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    std::vector<BlockGroup> groups;
    groups.push_back(BlockGroup{"k", limit * 4, [&](KernelCtx& k) -> Task {
                                  ran = true;
                                  EXPECT_EQ(k.blocks(), limit * 4);
                                  co_return;
                                }});
    CO_AWAIT(h.launch(s, LaunchConfig{.threads_per_block = 1024},
                      std::move(groups)));
    co_await h.sync_stream(s);
  });
  EXPECT_TRUE(ran);
}

TEST(Kernel, GridSyncJoinsBlockGroups) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  std::vector<Nanos> after_sync;
  auto group = [&](Nanos work) {
    return [&, work](KernelCtx& k) -> Task {
      co_await k.busy(work, sim::Cat::kCompute, "w");
      co_await k.grid_sync();
      after_sync.push_back(k.now());
    };
  };
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    std::vector<BlockGroup> groups;
    groups.push_back(BlockGroup{"fast", 1, group(10)});
    groups.push_back(BlockGroup{"slow", 1, group(90)});
    CO_AWAIT(h.launch(s, LaunchConfig{.cooperative = true, .name = "coop"},
                      std::move(groups)));
    co_await h.sync_stream(s);
  });
  ASSERT_EQ(after_sync.size(), 2u);
  // Join at 90, plus grid_sync cost 5.
  EXPECT_EQ(after_sync[0], 95);
  EXPECT_EQ(after_sync[1], 95);
}

TEST(Kernel, GridSyncOutsideCooperativeLaunchThrows) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  EXPECT_THROW(m.run_host_threads([&](int) -> Task {
                 HostCtx h(m, 0);
                 CO_AWAIT(h.launch_single(s, "kernel",
                                          [](KernelCtx& k) -> Task {
                                            co_await k.grid_sync();
                                          }));
                 co_await h.sync_stream(s);
               }),
               std::logic_error);
}

TEST(Kernel, SpinWaitObservesFlagAfterPoll) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  sim::Flag flag(m.engine(), 0);
  Nanos resumed = -1;
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    m.engine().spawn([](Machine& mm, sim::Flag& f) -> Task {
      co_await mm.engine().delay(40);
      f.set(1);
    }(m, flag));
    CO_AWAIT(h.launch_single(s, "kernel", [&](KernelCtx& k) -> Task {
      co_await k.spin_wait(flag, sim::Cmp::kGe, 1, "wait");
      resumed = k.now();
    }));
    co_await h.sync_stream(s);
  });
  EXPECT_EQ(resumed, 41);  // signal at 40 + poll granularity 1
}

TEST(Kernel, ComputeRunsFunctionalBodyAndChargesDram) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  auto data = m.alloc_array<double>(0, 8, "d");
  Nanos end = -1;
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    CO_AWAIT(h.launch_single(s, "kernel", [&](KernelCtx& k) -> Task {
      // 200 bytes at 2 GB/s -> 100 ns.
      co_await k.compute(200.0, 1.0, "c", [&] { data[0] = 3.0; });
      end = k.now();
    }));
    co_await h.sync_stream(s);
  });
  EXPECT_EQ(data[0], 3.0);
  EXPECT_EQ(end, 100);
}

TEST(Kernel, EnvelopeRecordedInTrace) {
  Machine m(simple_spec(1));
  Stream& s = m.device(0).create_stream();
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    CO_AWAIT(h.launch_single(s, "env", [](KernelCtx& k) -> Task {
      co_await k.busy(10, sim::Cat::kCompute, "c");
    }));
    co_await h.sync_stream(s);
  });
  bool found = false;
  for (const auto& iv : m.trace().intervals()) {
    if (iv.cat == sim::Cat::kKernel && iv.name == "env") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Kernel, HostApiIntervalsAttributedToHostTimeline) {
  MachineSpec spec = simple_spec(1);
  spec.host.kernel_launch = 20;
  Machine m(spec);
  Stream& s = m.device(0).create_stream();
  m.run_host_threads([&](int) -> Task {
    HostCtx h(m, 0);
    CO_AWAIT(h.launch_single(s, "kernel",
                             [](KernelCtx&) -> Task { co_return; }));
    co_await h.sync_stream(s);
  });
  EXPECT_GE(m.trace().union_length(sim::Cat::kHostApi, -1), 20);
}

/// Counts the copies made of the closures that capture one; moves are free.
struct CopyCounter {
  static inline int copies = 0;
  CopyCounter() = default;
  CopyCounter(const CopyCounter&) { ++copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) {
    ++copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
  ~CopyCounter() = default;
};

TEST(Kernel, StreamOpsMoveWhatTheyAreHanded) {
  // A stream op runs once, so a launch's block-group bodies reach their
  // groups and a peer copy's deliver callback reaches the transfer without
  // a copy.
  Machine m(simple_spec(2));
  m.enable_all_peer_access();
  Stream& s = m.device(0).create_stream();
  bool ran = false;
  bool delivered = false;
  std::vector<BlockGroup> groups;
  groups.push_back(BlockGroup{
      "g", 1, [c = CopyCounter{}, &ran](KernelCtx&) -> Task {
        ran = true;
        co_return;
      }});
  std::function<void()> deliver = [c = CopyCounter{}, &delivered] {
    delivered = true;
  };
  CopyCounter::copies = 0;
  m.run_host_threads([&](int dev) -> Task {
    if (dev != 0) co_return;
    HostCtx h(m, 0);
    CO_AWAIT(h.launch(s, LaunchConfig{.name = "k"}, std::move(groups)));
    CO_AWAIT(h.memcpy_peer_async(s, 1, 0, 8.0, "copy", std::move(deliver)));
    co_await h.sync_stream(s);
  });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(CopyCounter::copies, 0);
}

}  // namespace
