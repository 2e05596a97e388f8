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
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/observe.hpp"
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

/// Launches `kernels[i]` on physical device `devices[i]` and returns a flag
/// that counts the devices whose host has synced every stream; the caller
/// drives the engine. Streams are created up front in device-major order
/// (one per kernel), so lanes are assigned deterministically. When the
/// engine carries a job map, every stream is bound to `label` there, so
/// checker and hang reports name the owning job. Kernels of one device run
/// concurrently, so their blocks together must be co-resident: a device
/// with several kernels is checked against the cooperative cap before any
/// launch (a lone kernel is checked when it starts).
inline std::shared_ptr<sim::Flag> spawn_persistent(
    vgpu::Machine& machine, std::span<const int> devices,
    std::string_view label, std::vector<DeviceKernels> kernels,
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
  sim::JobMap* const jobs = machine.engine().job_map();
  std::vector<std::vector<vgpu::Stream*>> streams(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (std::size_t k = 0; k < kernels[i].size(); ++k) {
      vgpu::Stream& s = machine.device(devices[i]).create_stream();
      if (jobs != nullptr) jobs->bind(devices[i], s.lane(), std::string(label));
      streams[i].push_back(&s);
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
  static_cast<void>(spawn_persistent(machine, devices, {}, std::move(kernels),
                                     config.threads_per_block));
  machine.engine().run();
}

}  // namespace cpufree
