// Host-side runtime API surface (the "CPU" in CPU-controlled execution).
//
// HostCtx models one per-GPU host thread (the OpenMP-thread-per-GPU pattern
// of NVIDIA's multi-GPU samples). Every method charges the host-API cost
// from the machine's HostApiCosts and records a kHostApi trace interval on
// the host timeline, so benchmarks can attribute exactly how much time the
// CPU control path costs — the quantity the CPU-Free model removes.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "sim/task.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stream.hpp"

namespace vgpu {

class HostCtx {
 public:
  HostCtx(Machine& machine, int device)
      : machine_(&machine), device_(device) {}

  [[nodiscard]] Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return machine_->engine(); }
  [[nodiscard]] int device_id() const noexcept { return device_; }
  [[nodiscard]] const HostApiCosts& costs() const noexcept {
    return machine_->spec().host;
  }

  /// Generic small runtime API call.
  sim::Task api(std::string_view name = "api_call");

  /// Occupies the host thread for `cost` ns.
  sim::Task pay(sim::Nanos cost, std::string_view name);

  /// cudaLaunchKernel / cudaLaunchCooperativeKernel: charges issue cost on
  /// the host, then enqueues the kernel on `stream` (device-side start adds
  /// launch_to_start latency).
  sim::Task launch(Stream& stream, LaunchConfig config,
                   std::vector<BlockGroup> groups);

  /// A discrete (non-cooperative) kernel of one block group, both named
  /// `name` (a view: must outlive the run). A discrete launch has no grid
  /// size: the simulator charges what `body` does, and a block count only
  /// meets the co-residency cap of a cooperative launch.
  sim::Task launch_single(Stream& stream, std::string_view name,
                          std::function<sim::Task(KernelCtx&)> body);

  /// cudaMemcpyPeerAsync: host issues, stream executes, the interconnect
  /// charges host-initiated latency; `deliver` runs at payload arrival.
  /// `obs_read`/`obs_write` describe the copied bytes to an attached checker.
  sim::Task memcpy_peer_async(Stream& stream, int dst_device, int src_device,
                              double bytes, std::string_view name,
                              std::function<void()> deliver = {},
                              sim::MemRange obs_read = {},
                              sim::MemRange obs_write = {});

  /// cudaEventRecord on `stream`.
  sim::Task record_event(Stream& stream, Event& event);

  /// cudaStreamWaitEvent: `stream` pauses until the event's current record
  /// is published.
  sim::Task stream_wait_event(Stream& stream, Event& event);

  /// cudaStreamSynchronize.
  sim::Task sync_stream(Stream& stream);

  /// cudaEventSynchronize.
  sim::Task sync_event(Event& event);

  /// Host-wide OpenMP/MPI-style barrier across all per-device host threads.
  sim::Task barrier();

  /// This host thread's checker identity.
  [[nodiscard]] sim::Actor obs_actor() const noexcept {
    return sim::Actor::host(device_);
  }

 private:
  Machine* machine_;
  int device_;
};

}  // namespace vgpu
