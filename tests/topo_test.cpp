// Topology layer tests: routes, link contention, multi-node costing, the
// observer's link-occupancy stream, and pinned ledger arithmetic. Carries the
// `topo` CTest label so CI can gate on it standalone (`ctest -L topo`).
//
// The contention numbers are hand-derived from the progressive-filling rules
// in src/topo/ledger.hpp with the default LinkSpec latencies (device put
// issue 900 ns, device-initiated latency 1100 ns).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/comm.hpp"
#include "ledger_scenarios.hpp"
#include "sim/observe.hpp"
#include "topo/ledger.hpp"
#include "topo/router.hpp"
#include "topo/topology.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/machine.hpp"

namespace {

using sim::Nanos;
using vgpu::MachineSpec;
using vgpu::TransferKind;

// Awaits one transfer and records the simulated instant it delivered.
sim::Task timed_transfer(vgpu::Machine& m, int src, int dst, double bytes,
                         TransferKind kind, Nanos& done_at) {
  co_await m.transfer(src, dst, bytes, kind, 0, "timed");
  done_at = m.engine().now();
}

sim::Task timed_staging(vgpu::Machine& m, int dev, double bytes, bool to_host,
                        Nanos& done_at) {
  co_await m.staging_transfer(dev, bytes, to_host, "timed_staging");
  done_at = m.engine().now();
}

// Five devices; 0 and 1 reach 2 through a shared switch downlink, 3 -> 4 is
// a disjoint direct wire. All links 250 GB/s shared.
topo::Topology fan_in_topology() {
  topo::Topology t;
  for (int i = 0; i < 5; ++i) t.add_device("gpu" + std::to_string(i));
  const int sw = t.add_node(topo::NodeKind::kSwitch, "sw");
  t.add_link(t.device_nodes[0], sw, 250.0, 0, topo::LinkPolicy::kShared, "up0");
  t.add_link(t.device_nodes[1], sw, 250.0, 0, topo::LinkPolicy::kShared, "up1");
  t.add_link(sw, t.device_nodes[2], 250.0, 0, topo::LinkPolicy::kShared, "dn2");
  t.add_link(t.device_nodes[3], t.device_nodes[4], 250.0, 0,
             topo::LinkPolicy::kShared, "direct34");
  return t;
}

MachineSpec fan_in_spec() {
  MachineSpec s;
  s.num_devices = 5;
  s.topology = fan_in_topology();
  return s;
}

TEST(TopoRoutes, CrossbarReExpressesTheFlatModel) {
  vgpu::Machine m(MachineSpec::hgx_a100(4));
  const topo::Route& r = m.router().route(1, 3);
  EXPECT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.min_bw, 250.0);
  EXPECT_EQ(r.extra_latency, 0);
  EXPECT_FALSE(r.contended);
  EXPECT_EQ(m.router().max_extra_latency(), 0);
  // Per-ordered-pair lanes: 4*3 device links + 2*4 staging links.
  EXPECT_EQ(m.topology().links.size(), 20u);
}

TEST(TopoRoutes, PcieTreeSharesTheTree) {
  vgpu::Machine m(MachineSpec::dgx_pcie(8));
  // Same switch group: dev -> plx0 -> dev, one hop latency each way.
  const topo::Route& near = m.router().route(0, 1);
  EXPECT_EQ(near.links.size(), 2u);
  EXPECT_EQ(near.extra_latency, 600);
  EXPECT_TRUE(near.contended);
  EXPECT_EQ(near.min_bw, 12.0);
  // Cross-group: up through the root and down the other switch.
  const topo::Route& far = m.router().route(0, 4);
  EXPECT_EQ(far.links.size(), 4u);
  EXPECT_EQ(far.extra_latency, 1200);
  EXPECT_EQ(m.router().max_extra_latency(), 1200);
}

TEST(TopoRoutes, UnroutablePairThrows) {
  MachineSpec s = fan_in_spec();
  vgpu::Machine m(s);
  EXPECT_NO_THROW(static_cast<void>(m.router().route(0, 2)));
  // No reverse path through the fan-in switch, no path across components.
  EXPECT_THROW(static_cast<void>(m.router().route(2, 0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(m.router().route(0, 3)), std::logic_error);
}

// Two transfers forced through one shared downlink each get half the wire;
// a transfer on a disjoint route is unaffected.
TEST(TopoContention, SharedLinkHalvesDisjointUnaffected) {
  vgpu::Machine m(fan_in_spec());
  m.enable_all_peer_access();
  Nanos a = 0;
  Nanos b = 0;
  Nanos c = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 2, 250000.0, TransferKind::kDeviceInitiated, a));
  m.engine().spawn(
      timed_transfer(m, 1, 2, 250000.0, TransferKind::kDeviceInitiated, b));
  m.engine().spawn(
      timed_transfer(m, 3, 4, 250000.0, TransferKind::kDeviceInitiated, c));
  m.engine().run();
  // dn2 carries both: 125 GB/s each -> 900 issue + 2000 wire + 1100 latency.
  EXPECT_EQ(a, 4000);
  EXPECT_EQ(b, 4000);
  // Solo wire time would be 1000 ns; neither beats the halved bandwidth.
  EXPECT_GE(a, 900 + 2 * 1000 + 1100);
  // direct34 is uncontested: full 250 GB/s.
  EXPECT_EQ(c, 3000);
}

// When a flight lands, the survivor refills to the freed bandwidth — and the
// cancelled stale wake-up must not inflate simulated time.
TEST(TopoContention, BandwidthRefillsWhenAFlightLands) {
  vgpu::Machine m(fan_in_spec());
  m.enable_all_peer_access();
  Nanos a = 0;
  Nanos b = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 2, 500000.0, TransferKind::kDeviceInitiated, a));
  m.engine().spawn(
      timed_transfer(m, 1, 2, 125000.0, TransferKind::kDeviceInitiated, b));
  m.engine().run();
  // B: 125 GB/s until its 125000 B drain at t=1900, lands 1900 + 1100.
  EXPECT_EQ(b, 3000);
  // A: 125000 B at 125 GB/s, then the remaining 375000 B at the full
  // 250 GB/s -> wire ends 3400, lands 4500.
  EXPECT_EQ(a, 4500);
  // The ledger's superseded 4900 ns wake-up was cancelled; it must not have
  // dragged the clock past the last real event.
  EXPECT_EQ(m.engine().now(), 4500);
}

TEST(TopoContention, SamePairDeliveryStaysFifo) {
  vgpu::Machine m(fan_in_spec());
  m.enable_all_peer_access();
  // Big first, small second, same (0, 2) pair: fair sharing would drain the
  // small one first, but same-pair delivery is FIFO in admission order.
  Nanos big = 0;
  Nanos small = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 2, 500000.0, TransferKind::kDeviceInitiated, big));
  m.engine().spawn(
      timed_transfer(m, 0, 2, 1000.0, TransferKind::kDeviceInitiated, small));
  m.engine().run();
  EXPECT_GE(small, big);
}

TEST(TopoMultiNode, InterNodeStrictlyCostlierThanIntra) {
  vgpu::Machine m(MachineSpec::multi_node(2, 2));
  m.enable_all_peer_access();
  Nanos intra = 0;
  Nanos inter = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 1, 250000.0, TransferKind::kDeviceInitiated, intra));
  m.engine().run();
  m.engine().spawn(
      timed_transfer(m, 1, 2, 250000.0, TransferKind::kDeviceInitiated, inter));
  m.engine().run();
  // Intra-node NVLink lane behaves exactly like the flat model.
  EXPECT_EQ(intra, 900 + 1000 + 1100);
  // Inter-node: 25 GB/s network bottleneck and 200 + 1300 + 200 ns of hop
  // latency on top of the device-initiated latency.
  const Nanos t1 = intra;  // second run starts where the first ended
  EXPECT_EQ(inter - t1, 900 + 10000 + 1100 + 1700);
  EXPECT_GT(inter - t1, intra);
}

TEST(TopoNeighborOrder, FlatKeepsUpDownMultiNodePutsLongHaulFirst) {
  vgpu::Machine flat(MachineSpec::hgx_a100(4));
  EXPECT_EQ(exec::halo_neighbor_order(flat, 1, 4), (std::array<int, 2>{0, 2}));
  EXPECT_EQ(exec::halo_neighbor_order(flat, 0, 4), (std::array<int, 2>{-1, 1}));
  EXPECT_EQ(exec::halo_neighbor_order(flat, 3, 4), (std::array<int, 2>{2, -1}));
  vgpu::Machine mn(MachineSpec::multi_node(2, 2));
  // Device 1's down neighbour (2) is across the network: issued first.
  EXPECT_EQ(exec::halo_neighbor_order(mn, 1, 4), (std::array<int, 2>{2, 0}));
  // Device 2's up neighbour (1) is the remote one: default order already
  // leads with it.
  EXPECT_EQ(exec::halo_neighbor_order(mn, 2, 4), (std::array<int, 2>{1, 3}));
}

TEST(TopoStaging, CrossbarStagingMatchesTheFlatFormula) {
  vgpu::Machine m(MachineSpec::hgx_a100(2));
  Nanos down = 0;
  m.engine().spawn(timed_staging(m, 0, 120000.0, /*to_host=*/true, down));
  m.engine().run();
  // 120000 B at 12 GB/s + host_staging_latency, like the flat model charged.
  EXPECT_EQ(down, 10000 + 10000);
  // Staging never serializes on the crossbar: two concurrent stagings of the
  // same device cost the same as one.
  Nanos s1 = 0;
  Nanos s2 = 0;
  const Nanos t0 = m.engine().now();
  m.engine().spawn(timed_staging(m, 0, 120000.0, /*to_host=*/true, s1));
  m.engine().spawn(timed_staging(m, 0, 120000.0, /*to_host=*/false, s2));
  m.engine().run();
  EXPECT_EQ(s1 - t0, 20000);
  EXPECT_EQ(s2 - t0, 20000);
}

// Collects the ledger's link-occupancy stream.
class LinkLog : public sim::Observer {
 public:
  void on_link_busy(std::uint64_t flight, std::string_view link, int concurrent,
                    Nanos queued_ns, std::string_view what) override {
    static_cast<void>(flight);
    static_cast<void>(what);
    busy.push_back(std::string(link) + "#" + std::to_string(concurrent) + "+" +
                   std::to_string(queued_ns));
  }
  void on_link_release(std::uint64_t flight, std::string_view link,
                       int concurrent) override {
    static_cast<void>(flight);
    releases.push_back(std::string(link) + "#" + std::to_string(concurrent));
  }
  std::vector<std::string> busy;
  std::vector<std::string> releases;
};

TEST(TopoObserver, LinkEventsFireAndNeverMoveTheClock) {
  auto run = [](sim::Observer* o, LinkLog* log) {
    vgpu::Machine m(fan_in_spec());
    if (o != nullptr) m.engine().set_observer(o);
    m.enable_all_peer_access();
    Nanos a = 0;
    Nanos b = 0;
    m.engine().spawn(
        timed_transfer(m, 0, 2, 250000.0, TransferKind::kDeviceInitiated, a));
    m.engine().spawn(
        timed_transfer(m, 1, 2, 250000.0, TransferKind::kDeviceInitiated, b));
    m.engine().run();
    if (log != nullptr) {
      EXPECT_EQ(log->busy.size(), 4u);      // two flights x two links
      EXPECT_EQ(log->releases.size(), 4u);
      // The second admission sees the downlink already carrying one flight.
      EXPECT_EQ(log->busy[0], "up0#1+0");
      EXPECT_EQ(log->busy[1], "dn2#1+0");
      EXPECT_EQ(log->busy[2], "up1#1+0");
      EXPECT_EQ(log->busy[3], "dn2#2+0");
    }
    return std::pair{a, b};
  };
  LinkLog log;
  const auto with = run(&log, &log);
  const auto without = run(nullptr, nullptr);
  EXPECT_EQ(with, without);  // observation is timing-neutral
}

TEST(TopoObserver, ExclusiveLanesReportQueueing) {
  vgpu::Machine m(MachineSpec::hgx_a100(2));
  LinkLog log;
  m.engine().set_observer(&log);
  m.enable_all_peer_access();
  Nanos a = 0;
  Nanos b = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 1, 250000.0, TransferKind::kDeviceInitiated, a));
  m.engine().spawn(
      timed_transfer(m, 0, 1, 250000.0, TransferKind::kDeviceInitiated, b));
  m.engine().run();
  ASSERT_EQ(log.busy.size(), 2u);
  EXPECT_EQ(log.busy[0], "nvl:gpu0>gpu1#1+0");
  // The second transfer queued one wire time (1000 ns) behind the first.
  EXPECT_EQ(log.busy[1], "nvl:gpu0>gpu1#1+1000");
  EXPECT_EQ(log.releases.size(), 2u);
  // FIFO lane, unchanged flat-model timing.
  EXPECT_EQ(a, 3000);
  EXPECT_EQ(b, 4000);
}

// --- Pinned ledger arithmetic ------------------------------------------------

sim::Task wire_at(sim::Engine& e, topo::LinkLedger& ledger,
                  const topo::Route& r, double bytes, Nanos& done_at) {
  co_await ledger.wire_shared(r, bytes, 0, "wire");
  done_at = e.now();
}

// Three devices behind one switch: up0 (0 -> sw) is a 10 GB/s shared link,
// up1 (1 -> sw) an 8 GB/s kUnlimited link (a rate cap that never contends),
// dn2 (sw -> 2) a 20 GB/s shared link. Spelled out by hand from the
// water-filling rules:
//  * t=0, A (0->2, 100000 B), B (1->2, 100000 B), C (0->2, 1000 B), D (0->2,
//    0 B) are admitted in that order; D never enters the ledger.
//  * Round 1: dn2 offers 20/3, up0 offers 10/2 = 5, B's cap is 8; the
//    bottleneck 5 freezes A and C. Round 2: dn2 has 10 left for B alone,
//    B's cap 8 binds. A would finish at 20000, C drains at 200 but is
//    clamped behind A (same pair), B finishes at 12500.
//  * t=12500, B lands: A has 37500 B left and now owns up0 (10 GB/s), so it
//    finishes at 16250; C (drained) stays clamped behind A.
TEST(TopoLedger, SpelledOutCapRefillAndPairClamp) {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) t.add_device("gpu" + std::to_string(i));
  const int sw = t.add_node(topo::NodeKind::kSwitch, "sw");
  t.add_link(t.device_nodes[0], sw, 10.0, 0, topo::LinkPolicy::kShared, "up0");
  t.add_link(t.device_nodes[1], sw, 8.0, 0, topo::LinkPolicy::kUnlimited,
             "up1");
  t.add_link(sw, t.device_nodes[2], 20.0, 0, topo::LinkPolicy::kShared, "dn2");
  const topo::Router router(t);
  sim::Engine e;
  LinkLog log;
  e.set_observer(&log);
  topo::LinkLedger ledger(e, t);
  const topo::Route& r02 = router.route(0, 2);
  const topo::Route& r12 = router.route(1, 2);
  ASSERT_TRUE(r02.contended);
  ASSERT_TRUE(r12.contended);
  Nanos a = -1;
  Nanos b = -1;
  Nanos c = -1;
  Nanos d = -1;
  e.spawn(wire_at(e, ledger, r02, 100000.0, a));
  e.spawn(wire_at(e, ledger, r12, 100000.0, b));
  e.spawn(wire_at(e, ledger, r02, 1000.0, c));
  e.spawn(wire_at(e, ledger, r02, 0.0, d));
  e.run();
  EXPECT_EQ(d, 0);
  EXPECT_EQ(b, 12500);
  EXPECT_EQ(a, 16250);
  EXPECT_EQ(c, 16250);
  EXPECT_EQ(ledger.active_flights(), 0u);
  EXPECT_EQ(log.busy,
            (std::vector<std::string>{"up0#1+0", "dn2#1+0", "up1#1+0",
                                      "dn2#2+0", "up0#2+0", "dn2#3+0"}));
  // Releases count the flights left after every simultaneous landing.
  EXPECT_EQ(log.releases,
            (std::vector<std::string>{"up1#0", "dn2#2", "up0#0", "dn2#0",
                                      "up0#0", "dn2#0"}));
}

// Generated contended scenarios (tests/ledger_scenarios.hpp) on the capped
// PCIe tree and the 2x4 cluster under link-degradation and flap windows:
// every completion instant and the observer's link and fault streams must
// reproduce the digest captured before the ledger's scratch rewrite.
TEST(TopoLedger, GeneratedScenariosMatchThePinnedDigest) {
  using ledger_scenarios::Box;
  std::uint64_t h = ledger_scenarios::kFnvBasis;
  int events = 0;
  int faults = 0;
  for (const Box box : {Box::kCappedPcieTree, Box::kMultiNode}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto spec = ledger_scenarios::machine(box, seed);
      const auto transfers =
          ledger_scenarios::generate(seed, spec.num_devices, 160);
      ledger_scenarios::LinkHasher obs;
      const auto done = ledger_scenarios::run(spec, transfers, &obs);
      // Observation is timing-neutral.
      EXPECT_EQ(ledger_scenarios::run(spec, transfers), done);
      for (const Nanos at : done) {
        ASSERT_GE(at, 0);
        ledger_scenarios::fnv_word(h, static_cast<std::uint64_t>(at));
      }
      ledger_scenarios::fnv_word(h, obs.h);
      events += obs.events;
      faults += obs.faults;
    }
  }
  // The scenarios must actually contend and fault.
  EXPECT_GT(events, 1000);
  EXPECT_GT(faults, 10);
  EXPECT_EQ(h, 0x9bfa321fd43cc8b0ull) << std::hex << h;
}

}  // namespace
