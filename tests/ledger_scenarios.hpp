// Seeded contended-transfer scenarios that pin topo::LinkLedger's
// progressive-filling arithmetic: topo_test digests the completion times
// plus the observer's link and fault streams.
//
// A scenario is a list of transfers drawn from the counter-based RNG:
//  * random issue times, with same-pair bursts (several transfers on one
//    ordered pair at one instant) that exercise the per-pair FIFO clamp;
//  * random sizes, including 0 bytes, sub-1e-6-byte transfers and sizes
//    whose fractional remainder is below the ledger's drain epsilon;
//  * host staging transfers next to peer transfers;
//  * a fault schedule with link-degradation and flap windows.
// Two machines: the 8-GPU PCIe tree with gpu7's uplink and downlink turned
// into narrower kUnlimited links (a per-flight rate cap on contended routes),
// and the 2x4 multi-node cluster.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "topo/topology.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/machine.hpp"

namespace ledger_scenarios {

enum class Box { kCappedPcieTree, kMultiNode };

/// FNV-1a over a 64-bit word's bytes, low byte first.
inline void fnv_word(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

inline void fnv_text(std::uint64_t& h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  fnv_word(h, s.size());
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline vgpu::MachineSpec machine(Box box, std::uint64_t seed) {
  vgpu::MachineSpec s;
  if (box == Box::kCappedPcieTree) {
    s = vgpu::MachineSpec::dgx_pcie(8);
    for (topo::Link& l : s.topology.links) {
      if (l.name == "pcie:gpu7>plx1" || l.name == "pcie:plx1>gpu7") {
        l.policy = topo::LinkPolicy::kUnlimited;
        l.bw_gbps = 5.0;
      }
    }
  } else {
    s = vgpu::MachineSpec::multi_node(2, 4);
  }
  s.faults.seed = seed;
  s.faults.rate = 0.3;
  s.faults.classes = fault::kClassLink | fault::kClassFlap;
  s.faults.fault_window = sim::usec(20);
  return s;
}

struct Transfer {
  int src = 0;
  int dst = 0;       // == src for a host staging transfer
  bool to_host = false;
  double bytes = 0.0;
  sim::Nanos start = 0;
};

/// `count` transfers over `devices` GPUs.
inline std::vector<Transfer> generate(std::uint64_t seed, int devices,
                                      int count) {
  auto u = [seed](std::uint64_t i, std::uint64_t field) {
    return sim::stream_uniform(seed, 0x1ed9e7, i, field);
  };
  auto pick = [&u](std::uint64_t i, std::uint64_t field, int n) {
    return static_cast<int>(u(i, field) * n);
  };
  std::vector<Transfer> out;
  for (int i = 0; i < count; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    Transfer t;
    if (!out.empty() && u(k, 0) < 0.25) {
      // Same-pair burst: another transfer on the previous pair, same instant.
      t = out.back();
    } else {
      t.src = pick(k, 1, devices);
      t.dst = (t.src + 1 + pick(k, 2, devices - 1)) % devices;
      if (u(k, 3) < 0.12) {
        t.dst = t.src;
        t.to_host = u(k, 4) < 0.5;
      }
      t.start = static_cast<sim::Nanos>(u(k, 5) * 150000.0);
    }
    const double size = u(k, 6);
    if (size < 0.06) {
      t.bytes = 0.0;
    } else if (size < 0.12) {
      t.bytes = 4e-7;
    } else {
      t.bytes = static_cast<double>(1 + pick(k, 7, 400000));
      if (size < 0.3) t.bytes += 7e-7;
    }
    out.push_back(t);
  }
  return out;
}

/// Hashes the ledger's observer streams: link occupancy (flight, link,
/// concurrent) and link-window faults, in publication order.
class LinkHasher : public sim::Observer {
 public:
  void on_link_busy(std::uint64_t flight, std::string_view link,
                    int concurrent, sim::Nanos queued_ns,
                    std::string_view what) override {
    static_cast<void>(what);
    fnv_word(h, 1);
    fnv_word(h, flight);
    fnv_text(h, link);
    fnv_word(h, static_cast<std::uint64_t>(concurrent));
    fnv_word(h, static_cast<std::uint64_t>(queued_ns));
    ++events;
  }
  void on_link_release(std::uint64_t flight, std::string_view link,
                       int concurrent) override {
    fnv_word(h, 2);
    fnv_word(h, flight);
    fnv_text(h, link);
    fnv_word(h, static_cast<std::uint64_t>(concurrent));
    ++events;
  }
  void on_fault(const sim::Actor& actor, std::string_view kind,
                std::string_view what) override {
    static_cast<void>(actor);
    fnv_word(h, 3);
    fnv_text(h, kind);
    fnv_text(h, what);
    ++faults;
  }
  std::uint64_t h = kFnvBasis;
  int events = 0;
  int faults = 0;
};

inline sim::Task run_one(vgpu::Machine& m, Transfer t, sim::Nanos& done_at) {
  co_await m.engine().delay(t.start);
  if (t.src == t.dst) {
    co_await m.staging_transfer(t.src, t.bytes, t.to_host, "stage");
  } else {
    co_await m.transfer(t.src, t.dst, t.bytes,
                        vgpu::TransferKind::kDeviceInitiated, 0, "put");
  }
  done_at = m.engine().now();
}

/// Runs `transfers` on `spec`, each as its own root; returns every
/// transfer's completion instant, in list order.
inline std::vector<sim::Nanos> run(const vgpu::MachineSpec& spec,
                                   const std::vector<Transfer>& transfers,
                                   sim::Observer* observer = nullptr) {
  vgpu::Machine m(spec);
  if (observer != nullptr) m.engine().set_observer(observer);
  m.enable_all_peer_access();
  std::vector<sim::Nanos> done(transfers.size(), -1);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    m.engine().spawn(run_one(m, transfers[i], done[i]));
  }
  m.engine().run();
  return done;
}

}  // namespace ledger_scenarios
