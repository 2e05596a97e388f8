#include "dacelite/transforms.hpp"

#include <algorithm>
#include <variant>

namespace dacelite {

int apply_gpu_transform(Sdfg& sdfg) {
  int changed = 0;
  for (State& st : sdfg.body) {
    for (Node& n : st.nodes) {
      auto* m = std::get_if<MapNode>(&n);
      if (m != nullptr && m->schedule != Schedule::kGpuDevice) {
        m->schedule = Schedule::kGpuDevice;
        ++changed;
      }
    }
  }
  for (auto& [name, desc] : sdfg.arrays) {
    if (desc.storage == Storage::kHost) {
      desc.storage = Storage::kGpuGlobal;
      ++changed;
    }
  }
  sdfg.gpu = true;
  return changed;
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
  for (const State& st : sdfg.body) {
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
  }
  return changed;
}

int apply_mpi_to_nvshmem(Sdfg& sdfg) {
  int changed = 0;
  // ACK flags live above the data flags: ack(tag) = max_tag + 1 + tag.
  int max_tag = 0;
  for (const State& st : sdfg.body) {
    for (const Node& n : st.nodes) {
      if (const auto* lib = std::get_if<LibraryNode>(&n)) {
        max_tag = std::max(max_tag, lib->flag);
      }
    }
  }
  const int ack_base = max_tag + 1;
  for (State& st : sdfg.body) {
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
    st.nodes = std::move(kept);
  }
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
