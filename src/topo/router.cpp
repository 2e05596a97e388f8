#include "topo/router.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>
#include <string>

namespace topo {

namespace {

/// BFS from `start` over directed links, visiting neighbors in link-id order
/// (deterministic shortest paths). Returns per-node parent link id (-1 for
/// unreached/start).
std::vector<int> bfs(const Topology& t, int start) {
  std::vector<int> parent_link(t.nodes.size(), -1);
  std::vector<char> seen(t.nodes.size(), 0);
  // Outgoing adjacency in link-id order.
  std::vector<std::vector<int>> out(t.nodes.size());
  for (std::size_t li = 0; li < t.links.size(); ++li) {
    out[static_cast<std::size_t>(t.links[li].src)].push_back(
        static_cast<int>(li));
  }
  std::deque<int> q;
  q.push_back(start);
  seen[static_cast<std::size_t>(start)] = 1;
  while (!q.empty()) {
    const int node = q.front();
    q.pop_front();
    for (int li : out[static_cast<std::size_t>(node)]) {
      const int nxt = t.links[static_cast<std::size_t>(li)].dst;
      if (seen[static_cast<std::size_t>(nxt)]) continue;
      seen[static_cast<std::size_t>(nxt)] = 1;
      parent_link[static_cast<std::size_t>(nxt)] = li;
      q.push_back(nxt);
    }
  }
  return parent_link;
}

}  // namespace

Route Router::trace_path(const std::vector<int>& parent_link, int from_node,
                         int to_node) const {
  Route r;
  if (from_node == to_node) return r;
  // Walk parents back from the destination; unreachable if the chain breaks.
  std::vector<int> rev;
  int node = to_node;
  while (node != from_node) {
    const int li = parent_link[static_cast<std::size_t>(node)];
    if (li < 0) return r;  // unreachable: min_bw stays 0
    rev.push_back(li);
    node = topo_->links[static_cast<std::size_t>(li)].src;
  }
  r.links.assign(rev.rbegin(), rev.rend());
  r.min_bw = 0.0;
  for (int li : r.links) {
    const Link& l = topo_->links[static_cast<std::size_t>(li)];
    r.extra_latency += l.extra_latency;
    if (r.min_bw == 0.0 || l.bw_gbps < r.min_bw) r.min_bw = l.bw_gbps;
    if (l.policy == LinkPolicy::kShared) r.contended = true;
  }
  return r;
}

Router::Router(const Topology& topo)
    : topo_(&topo), n_(topo.num_devices()) {
  routes_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  stage_down_.resize(static_cast<std::size_t>(n_));
  stage_up_.resize(static_cast<std::size_t>(n_));
  // Reverse BFS trees from every host bridge, for the staging up-routes.
  std::vector<std::pair<int, std::vector<int>>> bridge_trees;
  for (std::size_t ni = 0; ni < topo.nodes.size(); ++ni) {
    if (topo.nodes[ni].kind == NodeKind::kHostBridge) {
      bridge_trees.emplace_back(static_cast<int>(ni),
                                bfs(topo, static_cast<int>(ni)));
    }
  }
  for (int s = 0; s < n_; ++s) {
    const int s_node = topo.device_nodes[static_cast<std::size_t>(s)];
    const std::vector<int> parents = bfs(topo, s_node);
    for (int d = 0; d < n_; ++d) {
      if (d == s) continue;
      const int d_node = topo.device_nodes[static_cast<std::size_t>(d)];
      Route r = trace_path(parents, s_node, d_node);
      r.src = s;
      r.dst = d;
      if (r.reachable()) {
        max_extra_latency_ = std::max(max_extra_latency_, r.extra_latency);
      }
      routes_[static_cast<std::size_t>(s) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(d)] = std::move(r);
    }
    // Nearest host bridge: fewest hops, then lowest node index.
    int best_bridge = -1;
    std::size_t best_hops = 0;
    Route best_down;
    for (const auto& [bridge, tree] : bridge_trees) {
      Route down = trace_path(parents, s_node, bridge);
      if (!down.reachable()) continue;
      if (best_bridge < 0 || down.links.size() < best_hops) {
        best_bridge = bridge;
        best_hops = down.links.size();
        best_down = std::move(down);
      }
    }
    if (best_bridge >= 0) {
      best_down.src = s;
      stage_down_[static_cast<std::size_t>(s)] = std::move(best_down);
      for (const auto& [bridge, tree] : bridge_trees) {
        if (bridge != best_bridge) continue;
        Route up = trace_path(tree, bridge, s_node);
        up.dst = s;
        stage_up_[static_cast<std::size_t>(s)] = std::move(up);
      }
    }
  }
}

const Route& Router::route(int src_dev, int dst_dev) const {
  const Route& r =
      routes_.at(static_cast<std::size_t>(src_dev) *
                     static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(dst_dev));
  if (!r.reachable()) {
    throw std::logic_error("topo: no route " + std::to_string(src_dev) +
                           " -> " + std::to_string(dst_dev));
  }
  return r;
}

const Route* Router::staging_route(int dev, bool to_host) const {
  const Route& r = to_host ? stage_down_.at(static_cast<std::size_t>(dev))
                           : stage_up_.at(static_cast<std::size_t>(dev));
  return r.reachable() ? &r : nullptr;
}

std::vector<std::uint64_t> Router::slice_signature(
    std::span<const int> devices) const {
  // Pair routes in PE order, then each PE's staging routes. An unreachable
  // route has no links, and every reachable one has at least one.
  std::vector<const Route*> routes;
  for (std::size_t a = 0; a < devices.size(); ++a) {
    for (std::size_t b = 0; b < devices.size(); ++b) {
      if (a == b) continue;
      routes.push_back(&routes_.at(static_cast<std::size_t>(devices[a]) *
                                       static_cast<std::size_t>(n_) +
                                   static_cast<std::size_t>(devices[b])));
    }
  }
  for (int d : devices) {
    routes.push_back(&stage_down_.at(static_cast<std::size_t>(d)));
    routes.push_back(&stage_up_.at(static_cast<std::size_t>(d)));
  }
  std::vector<int> used;
  for (const Route* r : routes) {
    used.insert(used.end(), r->links.begin(), r->links.end());
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());

  std::vector<std::uint64_t> sig{devices.size()};
  for (const Route* r : routes) {
    sig.push_back(r->links.size());
    for (int li : r->links) {
      sig.push_back(static_cast<std::uint64_t>(
          std::lower_bound(used.begin(), used.end(), li) - used.begin()));
    }
  }
  for (int li : used) {
    const Link& l = topo_->links[static_cast<std::size_t>(li)];
    sig.push_back(std::bit_cast<std::uint64_t>(l.bw_gbps));
    sig.push_back(static_cast<std::uint64_t>(l.extra_latency));
    sig.push_back(static_cast<std::uint64_t>(l.policy));
  }
  return sig;
}

}  // namespace topo
