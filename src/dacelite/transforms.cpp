#include "dacelite/transforms.hpp"

#include <algorithm>
#include <optional>
#include <variant>

namespace dacelite {

int apply_gpu_transform(Sdfg& sdfg) {
  int changed = 0;
  auto do_state = [&changed](State& st) {
    for (Node& n : st.nodes) {
      if (auto* m = std::get_if<MapNode>(&n)) {
        if (m->schedule != Schedule::kGpuDevice) {
          m->schedule = Schedule::kGpuDevice;
          ++changed;
        }
      }
    }
  };
  for (State& st : sdfg.setup) do_state(st);
  for (State& st : sdfg.body) do_state(st);
  for (auto& [name, desc] : sdfg.arrays) {
    if (desc.storage == Storage::kHost) {
      desc.storage = Storage::kGpuGlobal;
      ++changed;
    }
  }
  sdfg.gpu = true;
  return changed;
}

namespace {

/// Finds the memlet-based pattern mapA -> access -> mapB where the access
/// node's array is produced only by A and consumed only by B.
struct FusionMatch {
  std::size_t map_a;
  std::size_t access;
  std::size_t map_b;
};

std::optional<FusionMatch> find_fusion(const State& st) {
  for (const Memlet& e1 : st.memlets) {
    const auto* a = std::get_if<MapNode>(&st.nodes[e1.src_node]);
    const auto* acc = std::get_if<AccessNode>(&st.nodes[e1.dst_node]);
    if (a == nullptr || acc == nullptr) continue;
    for (const Memlet& e2 : st.memlets) {
      if (e2.src_node != e1.dst_node) continue;
      const auto* b = std::get_if<MapNode>(&st.nodes[e2.dst_node]);
      if (b == nullptr) continue;
      if (a->points != b->points || a->schedule != b->schedule) continue;
      // The intermediate may have no other consumers or producers.
      bool exclusive = true;
      for (const Memlet& e : st.memlets) {
        if (&e == &e1 || &e == &e2) continue;
        if (e.src_node == e1.dst_node || e.dst_node == e1.dst_node) {
          exclusive = false;
          break;
        }
      }
      if (!exclusive) continue;
      return FusionMatch{e1.src_node, e1.dst_node, e2.dst_node};
    }
  }
  return std::nullopt;
}

}  // namespace

int apply_map_fusion(State& state) {
  int fused = 0;
  while (auto match = find_fusion(state)) {
    auto& a = std::get<MapNode>(state.nodes[match->map_a]);
    auto& b = std::get<MapNode>(state.nodes[match->map_b]);
    MapNode merged;
    merged.name = a.name + "+" + b.name;
    merged.points = a.points;
    merged.bytes_per_point = a.bytes_per_point + b.bytes_per_point;
    merged.schedule = a.schedule;
    merged.reads = a.reads;
    for (const auto& r : b.reads) {
      if (std::find(merged.reads.begin(), merged.reads.end(), r) ==
          merged.reads.end()) {
        merged.reads.push_back(r);
      }
    }
    merged.writes = a.writes;
    for (const auto& w : b.writes) {
      if (std::find(merged.writes.begin(), merged.writes.end(), w) ==
          merged.writes.end()) {
        merged.writes.push_back(w);
      }
    }
    merged.body = [fa = a.body, fb = b.body](ExecCtx& ctx) {
      if (fa) fa(ctx);
      if (fb) fb(ctx);
    };
    // Replace A with the merged map; retarget B's outgoing edges; drop the
    // intermediate access node's edges and neutralize the consumed nodes.
    state.nodes[match->map_a] = std::move(merged);
    std::vector<Memlet> kept;
    for (Memlet& e : state.memlets) {
      const bool touches_access =
          e.src_node == match->access || e.dst_node == match->access;
      if (touches_access) continue;
      if (e.src_node == match->map_b) e.src_node = match->map_a;
      if (e.dst_node == match->map_b) e.dst_node = match->map_a;
      kept.push_back(e);
    }
    state.memlets = std::move(kept);
    state.nodes[match->map_b] = AccessNode{""};  // tombstone
    state.nodes[match->access] = AccessNode{""};
    ++fused;
  }
  return fused;
}

int apply_map_fusion(Sdfg& sdfg) {
  int fused = 0;
  for (State& st : sdfg.setup) fused += apply_map_fusion(st);
  for (State& st : sdfg.body) fused += apply_map_fusion(st);
  return fused;
}

void apply_persistent(Sdfg& sdfg) {
  if (!sdfg.gpu) {
    throw ValidationError(
        "GPUPersistentKernel requires a GPU-scheduled SDFG (run GPUTransform)");
  }
  sdfg.persistent = true;
  const std::size_t n = sdfg.body.size();
  sdfg.barrier_after.assign(n, false);
  if (n == 0) return;

  // Relaxed subgraph-edge rule (§5.1): every data dependency between states
  // (including across the loop back-edge) must cross at least one grid
  // barrier, but independent state edges need none. Greedy placement: walk
  // the state ring accumulating "unprotected" writes since the last barrier;
  // when a state touches one, place a barrier right before it. Iterate to a
  // fixpoint so wrap-around dependencies are covered.
  auto accesses = [](const State& st) {
    auto a = st.read_set();
    for (const auto& w : st.write_set()) {
      if (std::find(a.begin(), a.end(), w) == a.end()) a.push_back(w);
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::string> unprotected;
    for (std::size_t step = 0; step < 2 * n; ++step) {
      const std::size_t i = step % n;
      const std::size_t prev = (i + n - 1) % n;
      if (sdfg.barrier_after[prev]) unprotected.clear();
      bool hit = false;
      for (const auto& a : accesses(sdfg.body[i])) {
        if (std::find(unprotected.begin(), unprotected.end(), a) !=
            unprotected.end()) {
          hit = true;
          break;
        }
      }
      if (hit && !sdfg.barrier_after[prev]) {
        sdfg.barrier_after[prev] = true;
        changed = true;
        unprotected.clear();
      }
      for (const auto& w : sdfg.body[i].write_set()) {
        if (std::find(unprotected.begin(), unprotected.end(), w) ==
            unprotected.end()) {
          unprotected.push_back(w);
        }
      }
    }
  }
}

int apply_nvshmem_arrays(Sdfg& sdfg) {
  int changed = 0;
  auto do_state = [&](const State& st) {
    for (const Node& n : st.nodes) {
      const auto* lib = std::get_if<LibraryNode>(&n);
      if (lib == nullptr || !is_nvshmem(lib->kind) || lib->array.empty()) {
        continue;
      }
      ArrayDesc& d = sdfg.arrays.at(lib->array);
      if (d.storage != Storage::kGpuNvshmem) {
        d.storage = Storage::kGpuNvshmem;
        ++changed;
      }
    }
  };
  for (const State& st : sdfg.setup) do_state(st);
  for (const State& st : sdfg.body) do_state(st);
  return changed;
}

int apply_mpi_to_nvshmem(Sdfg& sdfg) {
  int changed = 0;
  // ACK flags live above the data flags: ack(tag) = max_tag + 1 + tag.
  int max_tag = 0;
  auto scan = [&max_tag](const State& st) {
    for (const Node& n : st.nodes) {
      if (const auto* lib = std::get_if<LibraryNode>(&n)) {
        max_tag = std::max(max_tag, lib->flag);
      }
    }
  };
  for (const State& st : sdfg.setup) scan(st);
  for (const State& st : sdfg.body) scan(st);
  const int ack_base = max_tag + 1;
  auto do_state = [&changed, ack_base](State& st) {
    std::vector<Node> kept;
    kept.reserve(st.nodes.size());
    for (Node& n : st.nodes) {
      auto* lib = std::get_if<LibraryNode>(&n);
      if (lib == nullptr) {
        kept.push_back(std::move(n));
        continue;
      }
      switch (lib->kind) {
        case LibKind::kMpiIsend: {
          LibraryNode put = *lib;
          put.kind = LibKind::kNvshmemPutmemSignal;
          put.ack_flag = ack_base + put.flag;
          kept.push_back(put);
          ++changed;
          break;
        }
        case LibKind::kMpiIrecv: {
          LibraryNode wait = *lib;
          wait.kind = LibKind::kNvshmemSignalWait;
          wait.ack_flag = ack_base + wait.flag;
          kept.push_back(wait);
          ++changed;
          break;
        }
        case LibKind::kMpiWaitall:
        case LibKind::kMpiBarrier:
          // Superseded by the granular flag-based synchronization (§6.2.1).
          // Waitall's other guarantee, that a send buffer may be reused,
          // moves to the persistent backend: it quiets in-flight puts before
          // a map overwrites their source (run_device_persistent).
          ++changed;
          break;
        default:
          kept.push_back(std::move(n));
          break;
      }
    }
    // Memlets referencing removed nodes would dangle; the jacobi frontends
    // attach memlets only between compute nodes, so simply keep them if the
    // node count is unchanged and drop them otherwise.
    if (kept.size() != st.nodes.size()) st.memlets.clear();
    st.nodes = std::move(kept);
  };
  for (State& st : sdfg.setup) do_state(st);
  for (State& st : sdfg.body) do_state(st);
  return changed;
}

PutExpansion select_expansion(const Subset& src, const Subset& dst) {
  if (src.single_element() && dst.single_element()) {
    return PutExpansion::kSingleElementP;
  }
  if (src.contiguous() && dst.contiguous()) {
    return PutExpansion::kContiguousSignal;
  }
  return PutExpansion::kStridedIputSignal;
}

PutExpansion resolve_expansion(ExpansionChoice choice, const Subset& src,
                               const Subset& dst) {
  switch (choice) {
    case ExpansionChoice::kAuto:
      return select_expansion(src, dst);
    case ExpansionChoice::kContiguousSignal:
      // putmem_signal needs contiguous payloads on both ends.
      return src.contiguous() && dst.contiguous()
                 ? PutExpansion::kContiguousSignal
                 : select_expansion(src, dst);
    case ExpansionChoice::kStridedIputSignal:
      // iput handles any (offset, count, stride) shape, including count 1.
      return PutExpansion::kStridedIputSignal;
    case ExpansionChoice::kSingleElementP:
      // Per-element p on a multi-element subset is word-granularity remote
      // stores — the same wire behaviour the iput expansion models.
      return src.single_element() && dst.single_element()
                 ? PutExpansion::kSingleElementP
                 : PutExpansion::kStridedIputSignal;
  }
  return select_expansion(src, dst);
}

}  // namespace dacelite
