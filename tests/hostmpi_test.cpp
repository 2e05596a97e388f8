// Unit tests for the simulated MPI subset: datatypes, eager isend/irecv
// matching, waits, blocking wrappers, sendrecv, and strided (vector)
// staging costs.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hostmpi/comm.hpp"
#include "test_machines.hpp"
#include "vgpu/host.hpp"
#include "vgpu/machine.hpp"

namespace {

using hostmpi::Comm;
using hostmpi::Datatype;
using hostmpi::Request;
using sim::Nanos;
using sim::Task;
using vgpu::HostCtx;
using vgpu::Machine;
using vgpu::MachineSpec;

MachineSpec spec(int devices) { return test_machines::host_staging(devices); }

TEST(Datatype, ContiguousAndVectorProperties) {
  const Datatype c = Datatype::contiguous(8);
  EXPECT_TRUE(c.is_contiguous());
  EXPECT_DOUBLE_EQ(c.payload_bytes(10), 80.0);

  const Datatype v = Datatype::vector(4, 1, 16, 8);
  EXPECT_FALSE(v.is_contiguous());
  EXPECT_DOUBLE_EQ(v.payload_bytes(1), 32.0);

  // Stride equal to block length degenerates to contiguous.
  const Datatype packed = Datatype::vector(4, 2, 2, 8);
  EXPECT_TRUE(packed.is_contiguous());
}

TEST(Comm, EagerMessageDeliveredToPostedRecv) {
  Machine m(spec(2));
  Comm comm(m);
  int delivered = 0;
  Nanos recv_done = -1;
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    if (dev == 0) {
      std::function<void()> deliver = [&] { delivered = 42; };
      CO_AWAIT(comm.send(h, 1, 7, 100, Datatype::contiguous(1),
                         std::move(deliver)));
    } else {
      co_await comm.recv(h, 0, 7);
      recv_done = m.engine().now();
      EXPECT_EQ(delivered, 42);
    }
  });
  // 100 bytes: wire 100 + latency 100 = 200.
  EXPECT_EQ(recv_done, 200);
}

TEST(Comm, RecvPostedBeforeSendStillMatches) {
  Machine m(spec(2));
  Comm comm(m);
  bool got = false;
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    if (dev == 1) {
      co_await comm.recv(h, 0, 3);  // posted first (rank 0 delays)
      got = true;
    } else {
      co_await m.engine().delay(500);
      std::function<void()> none;
      CO_AWAIT(comm.send(h, 1, 3, 8, Datatype::contiguous(8), std::move(none)));
    }
  });
  EXPECT_TRUE(got);
}

TEST(Comm, TagsSeparateMessageStreams) {
  Machine m(spec(2));
  Comm comm(m);
  std::vector<int> wire_order;
  bool receiver_done = false;
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    if (dev == 0) {
      // Send tag 2 first, tag 1 second. The receiver waits on tag 1 FIRST:
      // matching must be per-tag (no cross-tag head-of-line blocking in the
      // matching layer), so this completes even though tag 2 arrived first.
      std::function<void()> d2 = [&] { wire_order.push_back(2); };  // commit order
      std::function<void()> d1 = [&] { wire_order.push_back(1); };
      Request r2, r1;
      CO_AWAIT(comm.isend(h, 1, 2, 10000, Datatype::contiguous(1), std::move(d2), r2));
      CO_AWAIT(comm.isend(h, 1, 1, 1, Datatype::contiguous(1), std::move(d1), r1));
      std::vector<Request> rs{r2, r1};
      CO_AWAIT(comm.waitall(h, std::move(rs)));
    } else {
      co_await comm.recv(h, 0, 1);
      co_await comm.recv(h, 0, 2);
      receiver_done = true;
    }
  });
  EXPECT_TRUE(receiver_done);
  // Commits run at MATCH time: tag 1's recv was posted first and matches as
  // soon as its (later-arriving) payload lands; tag 2's buffered payload
  // commits when its recv is finally posted.
  EXPECT_EQ(wire_order, (std::vector<int>{1, 2}));
}

TEST(Comm, WaitallCompletesAllRequests) {
  Machine m(spec(3));
  Comm comm(m);
  int delivered = 0;
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    if (dev == 0) {
      std::vector<Request> reqs(2);
      std::function<void()> da = [&] { ++delivered; };
      std::function<void()> db = [&] { ++delivered; };
      CO_AWAIT(comm.isend(h, 1, 0, 64, Datatype::contiguous(8), std::move(da),
                          reqs[0]));
      CO_AWAIT(comm.isend(h, 2, 0, 64, Datatype::contiguous(8), std::move(db),
                          reqs[1]));
      CO_AWAIT(comm.waitall(h, std::move(reqs)));
      EXPECT_EQ(delivered, 2);
    } else {
      co_await comm.recv(h, 0, 0);
    }
  });
}

TEST(Comm, WaitOnInvalidRequestThrows) {
  Machine m(spec(2));
  Comm comm(m);
  EXPECT_THROW(m.run_host_threads([&](int dev) -> Task {
                 HostCtx h(m, dev);
                 if (dev == 0) {
                   Request empty;
                   CO_AWAIT(comm.wait(h, std::move(empty)));
                 }
                 co_return;
               }),
               std::logic_error);
}

// Helper for the vector-type test (kept out of the lambda to exercise the public API with
// a named datatype lvalue).
sim::Task c_send(Comm& comm, HostCtx& h, Datatype dt,
                 std::function<void()> deliver) {
  CO_AWAIT(comm.send(h, 1, 0, 1, dt, std::move(deliver)));
}

TEST(Comm, VectorTypeChargesPackAndUnpack) {
  Machine m(spec(2));
  Comm comm(m);
  Nanos contiguous_time = -1;
  Nanos strided_time = -1;
  {
    Machine mc(spec(2));
    Comm cc(mc);
    mc.run_host_threads([&](int dev) -> Task {
      HostCtx h(mc, dev);
      if (dev == 0) {
        std::function<void()> none;
        CO_AWAIT(cc.send(h, 1, 0, 32, Datatype::contiguous(8), std::move(none)));
      } else {
        co_await cc.recv(h, 0, 0);
        contiguous_time = mc.engine().now();
      }
    });
  }
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    if (dev == 0) {
      std::function<void()> none;
      // One vector element: 32 blocks of 1 double, stride 16 -> 256 bytes.
      CO_AWAIT(
          c_send(comm, h, Datatype::vector(32, 1, 16, 8), std::move(none)));
    } else {
      co_await comm.recv(h, 0, 0);
      strided_time = m.engine().now();
    }
  });
  // Contiguous: 256 B wire + 100 latency = 356.
  EXPECT_EQ(contiguous_time, 356);
  // Strided (vector type) falls back to host staging: per-block datatype
  // engine (32 * 100 = 3200 ns) + pack (2*256 B at 2 B/ns = 256 ns) + PCIe
  // down (1000 + 256/16 = 1016 ns) + wire 256 + latency 100 + PCIe up 1016 +
  // unpack 256 = 6100 ns.
  EXPECT_EQ(strided_time, 6100);
}

TEST(Comm, SendrecvExchangesWithoutDeadlock) {
  Machine m(spec(2));
  Comm comm(m);
  std::vector<int> delivered;
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    const int other = 1 - dev;
    std::function<void()> deliver = [&delivered, dev] {
      delivered.push_back(dev);
    };
    CO_AWAIT(comm.sendrecv(h, other, /*send_tag=*/dev, 16,
                           Datatype::contiguous(8), std::move(deliver), other,
                           /*recv_tag=*/other));
  });
  EXPECT_EQ(delivered.size(), 2u);
}

TEST(Comm, IssueCostChargedOnHostThread) {
  MachineSpec s = spec(2);
  s.host.mpi_issue = 4000;
  Machine m(s);
  Comm comm(m);
  Nanos after_isend = -1;
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    if (dev == 0) {
      Request r;
      std::function<void()> none;
      CO_AWAIT(comm.isend(h, 1, 0, 8, Datatype::contiguous(1), std::move(none), r));
      after_isend = m.engine().now();
      CO_AWAIT(comm.wait(h, std::move(r)));
    } else {
      co_await comm.recv(h, 0, 0);
    }
  });
  EXPECT_EQ(after_isend, 4000);
}

// Property sweep: all-to-all exchange among n ranks completes and delivers
// exactly n*(n-1) messages for several rank counts.
class AllToAll : public ::testing::TestWithParam<int> {};

TEST_P(AllToAll, EveryPairDeliversExactlyOnce) {
  const int n = GetParam();
  Machine m(spec(n));
  Comm comm(m);
  std::vector<std::vector<int>> got(static_cast<std::size_t>(n));
  m.run_host_threads([&](int dev) -> Task {
    HostCtx h(m, dev);
    std::vector<Request> reqs;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == dev) continue;
      Request r;
      std::function<void()> deliver = [&got, peer, dev] {
        got[static_cast<std::size_t>(peer)].push_back(dev);
      };
      CO_AWAIT(comm.isend(h, peer, /*tag=*/dev, 8, Datatype::contiguous(8),
                          std::move(deliver), r));
      reqs.push_back(r);
    }
    for (int peer = 0; peer < n; ++peer) {
      if (peer == dev) continue;
      co_await comm.recv(h, peer, /*tag=*/peer);
    }
    CO_AWAIT(comm.waitall(h, std::move(reqs)));
  });
  for (int dev = 0; dev < n; ++dev) {
    EXPECT_EQ(got[static_cast<std::size_t>(dev)].size(),
              static_cast<std::size_t>(n - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllToAll, ::testing::Values(2, 3, 4, 8));

}  // namespace
