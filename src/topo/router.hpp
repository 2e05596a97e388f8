// Deterministic route computation over a Topology.
//
// Routes are fixed per ordered endpoint pair for the lifetime of a machine:
// breadth-first shortest paths with ties broken by link insertion order, so
// the same topology always yields the same routes (no load balancing, no
// randomness — determinism is a simulator invariant). Because a pair's
// route never changes, per-pair FIFO delivery (which the checker's wire
// actors rely on) only needs ordering per route, which the LinkLedger
// enforces.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "topo/topology.hpp"

namespace topo {

/// One ordered path between two endpoints.
struct Route {
  int src = -1;  // source device id (or -1 for staging routes' host end)
  int dst = -1;
  std::vector<int> links;         // link ids, in traversal order
  sim::Nanos extra_latency = 0;   // sum of per-link extra latency
  double min_bw = 0.0;            // narrowest link bandwidth on the path
  bool contended = false;         // any kShared link on the path
  [[nodiscard]] bool reachable() const noexcept { return min_bw > 0.0; }
};

/// `a` is strictly costlier than `b`: higher added latency, then more hops,
/// then narrower bottleneck. Used for topology-aware neighbor ordering;
/// equal-cost routes compare false both ways, preserving legacy orderings.
[[nodiscard]] inline bool costlier(const Route& a, const Route& b) {
  if (a.extra_latency != b.extra_latency) {
    return a.extra_latency > b.extra_latency;
  }
  if (a.links.size() != b.links.size()) {
    return a.links.size() > b.links.size();
  }
  return a.min_bw < b.min_bw;
}

class Router {
 public:
  explicit Router(const Topology& topo);

  /// The fixed route between two devices. Throws std::logic_error if the
  /// topology does not connect them.
  [[nodiscard]] const Route& route(int src_dev, int dst_dev) const;

  /// The staging route between a device and its nearest host bridge
  /// (`to_host` selects direction); nullptr when the topology has none.
  [[nodiscard]] const Route* staging_route(int dev, bool to_host) const;

  /// Largest route extra-latency across all device pairs (0 on flat
  /// topologies); topology-aware collectives charge it per round.
  [[nodiscard]] sim::Nanos max_extra_latency() const noexcept {
    return max_extra_latency_;
  }

  /// What a job confined to `devices` (in PE order) sees of the
  /// interconnect: the route between every ordered pair of them and each
  /// one's staging routes both ways, with every link renamed by its rank
  /// among the link ids those routes use, followed by each used link's
  /// bandwidth (bit pattern), extra latency and policy in rank order. The
  /// ranking keeps link-id order, which the ledger's tie-breaking follows,
  /// so two slices with equal signatures present the same links in the same
  /// relative order with the same parameters.
  [[nodiscard]] std::vector<std::uint64_t> slice_signature(
      std::span<const int> devices) const;

 private:
  const Topology* topo_;
  int n_;
  std::vector<Route> routes_;      // n*n, index src*n+dst
  std::vector<Route> stage_down_;  // device -> host bridge
  std::vector<Route> stage_up_;    // host bridge -> device
  sim::Nanos max_extra_latency_ = 0;

  [[nodiscard]] Route trace_path(const std::vector<int>& parent_link,
                                 int from_node, int to_node) const;
};

}  // namespace topo
