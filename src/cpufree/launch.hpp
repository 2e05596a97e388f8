// Multi-GPU persistent cooperative launch (paper §3.1.1).
//
// In the CPU-Free model the host's entire job is one cooperative launch per
// kernel per device and one sync at the end; everything else (time loop,
// synchronization, communication) happens on the devices.
// spawn_persistent() is the one launcher behind every persistent run: it
// creates the streams, spawns one host coroutine per device that launches
// that device's kernels and syncs each stream once, and returns. A
// run-to-completion caller then drives the engine (launch_persistent_all);
// a caller inside a running engine awaits the returned flag instead.
// Cooperative co-residency limits are enforced per device.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"

namespace cpufree {

struct PersistentConfig {
  int threads_per_block = 1024;
  std::string_view name = "persistent";
};

/// Block groups for one persistent kernel.
using DeviceGroups = std::vector<vgpu::BlockGroup>;

/// One cooperative kernel of a persistent launch. `name` labels it in
/// traces (a view: must outlive the run).
struct PersistentKernel {
  std::string_view name;
  DeviceGroups groups;
};

/// The kernels one device runs, launched in this order, one stream each.
using DeviceKernels = std::vector<PersistentKernel>;

namespace detail {

/// One device's host thread: launch every kernel, then sync every stream
/// once — the CPU is free in between — and count the device as finished.
inline sim::Task persistent_host(vgpu::Machine& machine, int device,
                                 std::vector<vgpu::Stream*> streams,
                                 DeviceKernels kernels, int threads_per_block,
                                 std::shared_ptr<sim::Flag> done) {
  vgpu::HostCtx host(machine, device);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    vgpu::LaunchConfig lc;
    lc.threads_per_block = threads_per_block;
    lc.cooperative = true;
    lc.name = kernels[i].name;
    CO_AWAIT(host.launch(*streams[i], lc, std::move(kernels[i].groups)));
  }
  for (vgpu::Stream* s : streams) co_await host.sync_stream(*s);
  done->add(1);
}

}  // namespace detail

/// Makes a stream for a kernel of the i-th launched device: a World's
/// create_stream for a world's launch (bound to its job, released with it),
/// the device's own for a whole-machine one.
using StreamSource = std::function<vgpu::Stream&(std::size_t i)>;

/// Launches `kernels[i]` on physical device `devices[i]` and returns a flag
/// that counts the devices whose host has synced every stream; the caller
/// drives the engine. Streams come from `make_stream` up front in
/// device-major order (one per kernel), so lanes are assigned
/// deterministically. Kernels of one device run concurrently, so their
/// blocks together must be co-resident: a device with several kernels is
/// checked against the cooperative cap before any launch (a lone kernel is
/// checked when it starts).
inline std::shared_ptr<sim::Flag> spawn_persistent(
    vgpu::Machine& machine, std::span<const int> devices,
    const StreamSource& make_stream, std::vector<DeviceKernels> kernels,
    int threads_per_block) {
  if (devices.size() != kernels.size()) {
    throw std::invalid_argument(
        "spawn_persistent: one kernel set per device required");
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (kernels[i].size() < 2) continue;
    int blocks = 0;
    for (const PersistentKernel& k : kernels[i]) {
      blocks += vgpu::total_blocks(k.groups);
    }
    const int limit = machine.device(devices[i]).spec().max_cooperative_blocks(
        threads_per_block);
    if (blocks > limit) throw vgpu::CooperativeLaunchError(blocks, limit);
  }
  std::vector<std::vector<vgpu::Stream*>> streams(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (std::size_t k = 0; k < kernels[i].size(); ++k) {
      streams[i].push_back(&make_stream(i));
    }
  }
  auto done = std::make_shared<sim::Flag>(machine.engine(), 0);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    machine.engine().spawn(detail::persistent_host(
        machine, devices[i], std::move(streams[i]), std::move(kernels[i]),
        threads_per_block, done));
  }
  return done;
}

/// Launches one persistent cooperative kernel per device of the whole
/// machine (device i runs groups[i]) and runs the machine until every
/// kernel finished. This is the whole host-side control flow of a CPU-Free
/// application.
inline void launch_persistent_all(vgpu::Machine& machine,
                                  std::vector<DeviceGroups> groups,
                                  PersistentConfig config = {}) {
  if (static_cast<int>(groups.size()) != machine.num_devices()) {
    throw std::invalid_argument(
        "launch_persistent_all: one group set per device required");
  }
  std::vector<int> devices;
  std::vector<DeviceKernels> kernels;
  for (int d = 0; d < machine.num_devices(); ++d) {
    devices.push_back(d);
    kernels.emplace_back().push_back(PersistentKernel{
        config.name, std::move(groups[static_cast<std::size_t>(d)])});
  }
  static_cast<void>(spawn_persistent(
      machine, devices,
      [&machine](std::size_t d) -> vgpu::Stream& {
        return machine.device(static_cast<int>(d)).create_stream();
      },
      std::move(kernels), config.threads_per_block));
  machine.engine().run();
}

}  // namespace cpufree
