// Virtual multi-GPU node: devices, device memory, and the interconnect.
//
// A Machine owns the simulation Engine, a set of Devices, all device memory
// blocks, and the peer-access matrix. Inter-device transfers are routed
// through Machine::transfer(), which charges interconnect latency/bandwidth,
// serializes transfers that share a directed link, and invokes the caller's
// delivery callback at the simulated instant the payload lands (so functional
// data movement is ordered exactly like the modeled hardware would order it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/observe.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "topo/ledger.hpp"
#include "topo/router.hpp"
#include "topo/topology.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/stream.hpp"

namespace vgpu {

class Machine;
class Stream;

/// A raw allocation on one device. Data lives in host memory (this is a
/// simulator), but ownership and access rules follow device semantics.
class MemBlock {
 public:
  MemBlock(int device, std::size_t bytes, std::string name)
      : device_(device), name_(std::move(name)), data_(bytes) {}

  [[nodiscard]] int device() const noexcept { return device_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return data_.size(); }

  template <typename T>
  [[nodiscard]] std::span<T> as() {
    return {reinterpret_cast<T*>(data_.data()), data_.size() / sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data_.data()), data_.size() / sizeof(T)};
  }

 private:
  friend class Machine;

  int device_;
  std::string name_;
  std::vector<std::byte> data_;
  std::size_t slot_ = 0;  // index in the owning Machine's block table
};

/// Typed handle over a MemBlock.
template <typename T>
class DeviceArray {
 public:
  DeviceArray() = default;
  explicit DeviceArray(MemBlock* block) : block_(block) {}

  [[nodiscard]] std::span<T> span() { return block_->as<T>(); }
  [[nodiscard]] std::span<const T> span() const {
    return const_cast<const MemBlock*>(block_)->as<T>();
  }
  [[nodiscard]] std::size_t size() const { return block_->size_bytes() / sizeof(T); }
  [[nodiscard]] int device() const { return block_->device(); }
  [[nodiscard]] MemBlock& block() { return *block_; }
  [[nodiscard]] bool valid() const noexcept { return block_ != nullptr; }

  T& operator[](std::size_t i) { return span()[i]; }
  const T& operator[](std::size_t i) const { return span()[i]; }

 private:
  MemBlock* block_ = nullptr;
};

/// How a transfer is initiated; decides which latency applies.
enum class TransferKind : std::uint8_t {
  kHostInitiated,    // cudaMemcpy*Async issued by the host runtime
  kDeviceInitiated,  // P2P load/store or NVSHMEM put from inside a kernel
};

class Device {
 public:
  Device(Machine& machine, int id, DeviceSpec spec)
      : machine_(&machine), id_(id), spec_(spec) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] Machine& machine() noexcept { return *machine_; }

  /// Creates a new stream on this device (FIFO op queue, like a CUDA stream).
  /// Lanes are never handed out twice, so a (device, lane) pair names one
  /// stream for the machine's whole life.
  Stream& create_stream();

  /// Destroys `stream`, a stream of this device with no op left to run, and
  /// forgets its completion flag (Engine::forget). Its lane stays retired.
  void release_stream(Stream& stream);

  /// Streams created and not yet released.
  [[nodiscard]] std::size_t stream_count() const noexcept { return streams_.size(); }

 private:
  Machine* machine_;
  int id_;
  DeviceSpec spec_;
  std::vector<std::unique_ptr<Stream>> streams_;
  int next_lane_ = 0;
};

class Machine {
 public:
  explicit Machine(MachineSpec spec);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const MachineSpec& spec() const noexcept { return spec_; }
  /// The machine-owned fault schedule (built from spec().faults). Shared by
  /// every layer that injects or recovers, so counters and PRNG streams are
  /// per-machine — sweep jobs never share one.
  [[nodiscard]] fault::Schedule& faults() noexcept { return faults_; }
  [[nodiscard]] const fault::Schedule& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] int num_devices() const noexcept { return spec_.num_devices; }
  [[nodiscard]] Device& device(int id) { return *devices_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] sim::Trace& trace() noexcept { return engine_.trace(); }

  /// Allocates `bytes` of device memory on `device`. The block lives until
  /// free_block() or the Machine's destruction.
  MemBlock& alloc_block(int device, std::size_t bytes, std::string name);

  /// Frees a block of this machine (cudaFree / nvshmem_free). Its address
  /// is forgotten (Engine::forget), so a block later allocated there starts
  /// with no checker history.
  void free_block(MemBlock& block);

  /// Device bytes allocated and not yet freed, and the most ever live at
  /// once. Host-side accounting; never affects simulated time.
  [[nodiscard]] std::size_t live_bytes() const noexcept { return live_bytes_; }
  [[nodiscard]] std::size_t peak_bytes() const noexcept { return peak_bytes_; }

  template <typename T>
  DeviceArray<T> alloc_array(int device, std::size_t count, std::string name) {
    return DeviceArray<T>(&alloc_block(device, count * sizeof(T), std::move(name)));
  }

  /// Mirrors cudaDeviceEnablePeerAccess: allows direct transfers src -> dst.
  void enable_peer_access(int src, int dst);
  void enable_all_peer_access();
  [[nodiscard]] bool peer_enabled(int src, int dst) const;

  /// Moves `bytes` from `src` to `dst` over the interconnect. Charges the
  /// initiation latency of `kind`, serializes against other transfers on the
  /// same directed link, runs `deliver` (functional payload copy) at the
  /// simulated arrival instant, and records a kComm trace interval on the
  /// source device. Same-device "transfers" only run the payload and charge
  /// DRAM time.
  /// `obs` describes the transfer to an attached checker (issuing actor,
  /// byte ranges, completion semantics); a default TransferObs is silent.
  sim::Task transfer(int src, int dst, double bytes, TransferKind kind, int lane,
                     std::string_view name, std::function<void()> deliver = {},
                     sim::Cat cat = sim::Cat::kComm,
                     sim::TransferObs obs = {});

  /// One direction of the host-staging path for `device` (e.g. the pack /
  /// unpack copies of a non-contiguous MPI datatype): charges the staging
  /// wire over the topology's route to the nearest host bridge plus
  /// LinkSpec::host_staging_latency. On topologies without a staging route
  /// the flat staging formula is charged as a pure delay. Emits no trace
  /// record — callers account it inside their own intervals.
  sim::Task staging_transfer(int device, double bytes, bool to_host,
                             std::string_view name);

  /// The interconnect graph and its fixed routes.
  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] const topo::Router& router() const noexcept { return *router_; }

  /// The slice class of `devices` (in PE order): the router's
  /// slice_signature, then each PE's DeviceSpec, named by the lowest device
  /// id with an equal spec. A job alone on an idle copy of this machine
  /// takes the same simulated time on any two slices of one class.
  [[nodiscard]] std::vector<std::uint64_t> slice_class(
      std::span<const int> devices) const;

  /// Host-side barrier across the per-device host threads (OpenMP/MPI style);
  /// charges HostApiCosts::host_barrier after the rendezvous.
  sim::Task host_barrier();

  /// The barrier object behind host_barrier() (identity key for checkers).
  [[nodiscard]] sim::Barrier& host_barrier_sync() noexcept {
    return *host_barrier_;
  }

  /// Spawns one host-thread coroutine per device (factory receives the
  /// device id) and runs the simulation to completion.
  void run_host_threads(
      const std::function<sim::Task(int device)>& host_program);

 private:
  MachineSpec spec_;
  sim::Engine engine_;
  fault::Schedule faults_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<MemBlock>> blocks_;
  std::size_t live_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::vector<std::vector<bool>> peer_;
  topo::Topology topology_;
  std::unique_ptr<topo::Router> router_;
  std::unique_ptr<topo::LinkLedger> ledger_;
  std::unique_ptr<sim::Barrier> host_barrier_;
  std::uint64_t obs_op_seq_ = 0;  // transfer op ids for issue/deliver pairing
};

}  // namespace vgpu
