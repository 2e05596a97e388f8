// dacelite: a miniature data-centric compiler IR modeled on DaCe's SDFG
// (paper §2.3, Chapter 5).
//
// An Sdfg holds data descriptors (arrays with storage types, including the
// GPU_NVSHMEM symmetric storage added by the paper, §5.3.3) and a time loop
// of States. Each State is a sequence of nodes: MapNodes (data-parallel
// regions) and LibraryNodes (MPI / NVSHMEM communication, §5.2-5.3). A
// library node's source and destination subsets drive the compile-time
// expansion selection for NVSHMEM puts (contiguous putmem_signal, strided
// iput + signal_op + quiet, or single-element p; §5.3.1).
//
// Distributed programs are SPMD: every rank executes the same SDFG over its
// local array instances; library-node peers and guards are functions of the
// process grid.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace dacelite {

// --- Data descriptors --------------------------------------------------------

enum class Storage : std::uint8_t {
  kHost,        // CPU memory
  kGpuGlobal,   // device global memory
  kGpuNvshmem,  // symmetric heap (added storage type, §5.3.3)
};

[[nodiscard]] constexpr const char* storage_name(Storage s) {
  switch (s) {
    case Storage::kHost: return "Host";
    case Storage::kGpuGlobal: return "GPU_Global";
    case Storage::kGpuNvshmem: return "GPU_NVSHMEM";
  }
  return "?";
}

/// Per-rank execution context handed to functional node bodies.
struct ExecCtx {
  int rank = 0;
  int size = 1;
  int t = 0;  // current loop iteration (1-based)
  /// Local instance of an array on this rank.
  std::function<std::span<double>(const std::string&)> local;
};

struct ArrayDesc {
  std::string name;
  std::size_t size = 0;  // elements per rank (local instance size)
  Storage storage = Storage::kHost;
  /// Initial value of element `idx` on `rank` (defaults to zero).
  std::function<double(int rank, std::size_t idx)> init;
};

// --- Subsets -------------------------------------------------------------

/// A strided 1D view into a (flattened) local array: `count` elements
/// starting at `offset`, `stride` apart. This is the shape information the
/// §5.3.1 compile-time check dispatches on.
struct Subset {
  std::size_t offset = 0;
  std::size_t count = 1;
  std::ptrdiff_t stride = 1;

  [[nodiscard]] bool single_element() const { return count == 1; }
  [[nodiscard]] bool contiguous() const { return stride == 1 || count == 1; }
  [[nodiscard]] std::size_t index(std::size_t i) const {
    return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(offset) +
                                    static_cast<std::ptrdiff_t>(i) * stride);
  }
};

// --- Nodes ---------------------------------------------------------------

enum class Schedule : std::uint8_t { kCpu, kGpuDevice };

/// Data-parallel region (DaCe Map). `points` is the symbolic domain size per
/// rank; `bytes_per_point` the streaming traffic; `body` the functional
/// update of this rank's local arrays.
struct MapNode {
  std::string name;
  double points = 0;
  double bytes_per_point = 16.0;
  Schedule schedule = Schedule::kCpu;
  std::function<void(ExecCtx&)> body;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

/// The frontends emit Isend, Irecv and Waitall; apply_mpi_to_nvshmem
/// rewrites them into PutmemSignal and SignalWait.
enum class LibKind : std::uint8_t {
  // MPI library nodes (existing distributed support, §5.2)
  kMpiIsend,
  kMpiIrecv,
  kMpiWaitall,
  // NVSHMEM library nodes (this work, §5.3)
  kNvshmemPutmemSignal,  // signaled put; expands per §5.3.1 at execution
  kNvshmemSignalWait,    // signal_wait_until on own flag
};

[[nodiscard]] constexpr bool is_nvshmem(LibKind k) {
  return k >= LibKind::kNvshmemPutmemSignal;
}

/// Communication library node. `peer` and `guard` are evaluated per rank at
/// execution time (SPMD), mirroring DaCe symbolic expressions.
struct LibraryNode {
  LibKind kind = LibKind::kMpiWaitall;
  std::string array;  // data array (empty for pure sync nodes)
  Subset src;         // local source subset
  Subset dst;         // subset in the peer's instance
  int flag = 0;       // MPI tag / NVSHMEM signal index
  /// Flow-control (consumption ACK) signal index, or -1 for none. Generated
  /// by apply_mpi_to_nvshmem: a signaled put must not overwrite the halo of
  /// the previous iteration before the receiver finished reading it, so the
  /// receiver publishes "ready for iteration t" on this flag and the sender
  /// waits for it before putting. MPI needs no such flag (the runtime
  /// buffers eagerly); GPU-initiated puts write user memory directly.
  int ack_flag = -1;
  std::function<int(int rank, int size)> peer;     // remote rank
  std::function<bool(int rank, int size)> guard;   // node active?

  [[nodiscard]] bool active(int rank, int size) const {
    return !guard || guard(rank, size);
  }
  [[nodiscard]] int peer_of(int rank, int size) const {
    return peer ? peer(rank, size) : rank;
  }
};

using Node = std::variant<MapNode, LibraryNode>;

// --- States and the SDFG ---------------------------------------------------

struct State {
  std::string name;
  std::vector<Node> nodes;

  /// Appends a MapNode or LibraryNode, constructing the Node in place.
  template <typename N>
  void add(N&& n) {
    nodes.emplace_back(std::forward<N>(n));
  }

  /// Arrays read / written by the state's computational nodes (used by the
  /// relaxed barrier-placement rule of the persistent transformation, §5.1).
  [[nodiscard]] std::vector<std::string> read_set() const;
  [[nodiscard]] std::vector<std::string> write_set() const;
};

class ValidationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Sdfg {
  std::string name;
  std::map<std::string, ArrayDesc> arrays;
  std::vector<State> body;  // the time loop body
  int default_iterations = 1;
  std::string loop_var = "t";

  // Set by transformations:
  bool gpu = false;         // GPUTransform applied
  bool persistent = false;  // GPUPersistentKernel applied
  /// barrier_after[i]: grid barrier between body state i and its successor
  /// (wrapping); filled by the persistent transformation.
  std::vector<bool> barrier_after;

  ArrayDesc& add_array(ArrayDesc d) {
    auto [it, inserted] = arrays.emplace(d.name, std::move(d));
    if (!inserted) throw ValidationError("duplicate array: " + it->first);
    return it->second;
  }
  State& add_body_state(std::string state_name) {
    body.push_back(State{std::move(state_name), {}});
    return body.back();
  }

  /// Structural validation: the loop runs at least one iteration, every
  /// referenced array exists, NVSHMEM data nodes touch symmetric storage
  /// (after the NVSHMEMArray transformation), and persistent SDFGs are
  /// GPU-scheduled.
  void validate() const;
};

}  // namespace dacelite
