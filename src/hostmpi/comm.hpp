// Simulated MPI subset for host-side orchestration.
//
// Models a CUDA-aware single-node MPI with one rank per GPU (how the paper's
// baselines and DaCe's generated code drive multi-GPU execution): eager
// point-to-point messages with (source, destination, tag) matching, request
// objects, Waitall, and a vector (strided) datatype. A message of a
// non-contiguous datatype pays its pack and unpack (per-block overhead plus
// device-memory traffic) and its staging through host memory inside the
// transport, on both ends.
//
// Payloads move over the machine's interconnect with host-initiated latency.
// Functionally, the payload is captured by the sender's `deliver` closure at
// issue time (eager-buffer semantics) and committed into the destination at
// MATCH time: arrival if the receive is already posted, else at Irecv.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/machine.hpp"

namespace hostmpi {

/// MPI datatype description. Contiguous types move at full link efficiency;
/// vector (strided) types require pack/unpack staging, modeled as extra
/// device-memory traffic on both ends (MPI_Type_vector path in §6.2.2).
struct Datatype {
  std::size_t elem_bytes = 8;
  std::size_t block_count = 1;   // number of blocks (vector) or 1
  std::size_t block_len = 1;     // elements per block
  std::ptrdiff_t stride = 1;     // elements between block starts

  [[nodiscard]] static Datatype contiguous(std::size_t elem_bytes_ = 8) {
    return Datatype{elem_bytes_, 1, 1, 1};
  }
  [[nodiscard]] static Datatype vector(std::size_t count, std::size_t len,
                                       std::ptrdiff_t stride_,
                                       std::size_t elem_bytes_ = 8) {
    return Datatype{elem_bytes_, count, len, stride_};
  }

  [[nodiscard]] bool is_contiguous() const {
    return block_count == 1 ||
           stride == static_cast<std::ptrdiff_t>(block_len);
  }
  /// Payload bytes for `count` elements of this type.
  [[nodiscard]] double payload_bytes(std::size_t count) const {
    return static_cast<double>(count * block_count * block_len * elem_bytes);
  }
};

class Comm;

/// Handle for a pending Isend/Irecv.
class Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const noexcept { return done_ != nullptr; }
  [[nodiscard]] bool complete() const { return done_ && done_->value() >= 1; }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<sim::Flag> done) : done_(std::move(done)) {}
  std::shared_ptr<sim::Flag> done_;
};

class Comm {
 public:
  explicit Comm(vgpu::Machine& machine);
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int size() const noexcept { return machine_->num_devices(); }
  [[nodiscard]] vgpu::Machine& machine() noexcept { return *machine_; }

  /// MPI_Isend: charges the issue cost on `host`'s thread, then moves
  /// `count` elements of `type` from this rank's device to `dst`'s device.
  /// Eager semantics: the payload is logically captured at issue time (the
  /// caller's `deliver` closure should snapshot the source if it can change);
  /// `deliver` runs when the message is MATCHED — at arrival if a receive is
  /// already posted, else when the receive is posted. The returned request
  /// completes at arrival (send buffer reusable).
  sim::Task isend(vgpu::HostCtx& host, int dst, int tag, std::size_t count,
                  Datatype type, std::function<void()> deliver, Request& out);

  /// MPI_Irecv: completes when a matching message (src, my rank, tag) has
  /// arrived. Matching is FIFO per (src, dst, tag) triple.
  sim::Task irecv(vgpu::HostCtx& host, int src, int tag, Request& out);

  /// MPI_Wait.
  sim::Task wait(vgpu::HostCtx& host, Request req);

  /// MPI_Waitall.
  sim::Task waitall(vgpu::HostCtx& host, std::vector<Request> reqs);

  /// Blocking MPI_Send (isend + wait).
  sim::Task send(vgpu::HostCtx& host, int dst, int tag, std::size_t count,
                 Datatype type, std::function<void()> deliver);

  /// Blocking MPI_Recv (irecv + wait).
  sim::Task recv(vgpu::HostCtx& host, int src, int tag);

  /// MPI_Sendrecv: concurrent send to `dst` and receive from `src`.
  sim::Task sendrecv(vgpu::HostCtx& host, int dst, int send_tag,
                     std::size_t send_count, Datatype type,
                     std::function<void()> deliver, int src, int recv_tag);

 private:
  using Key = std::tuple<int, int, int>;  // (src, dst, tag)

  struct Mailbox {
    /// Unmatched arrived messages: their commit (functional copy) runs at
    /// match time.
    std::deque<std::shared_ptr<std::function<void()>>> arrivals;
    std::deque<std::shared_ptr<sim::Flag>> recvs;  // posted, unmatched
  };

  /// Moves the payload and runs matching at the arrival instant.
  sim::Task transport(int src, int dst, int tag, double bytes, Datatype type,
                      std::shared_ptr<sim::Flag> sent,
                      std::shared_ptr<std::function<void()>> deliver);

  void on_arrival(const Key& key,
                  std::shared_ptr<std::function<void()>> commit);

  vgpu::Machine* machine_;
  std::map<Key, Mailbox> mail_;
};

}  // namespace hostmpi
