// The discrete launch primitive. A discrete kernel has no grid size: the
// simulator charges what its body does, so a launch states only a stream,
// a name and a body (vgpu::HostCtx::launch_single). launch_compute is the
// shape most discrete kernels take: publish the phase's accesses, run the
// numerics, charge one compute phase.
//
// The host loop issuing these launches belongs to exec::run_program
// (LaunchPolicy::kHostLoop), and so does the one persistent launcher, a
// private function of exec/program.cpp (the whole CPU-Free host program:
// one cooperative launch per kernel per device, one sync at the very end,
// §3.1.1).
#pragma once

#include <functional>
#include <string_view>
#include <utility>

#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"

namespace exec {

/// Launches discrete kernel `kernel` on `stream`: one compute phase named
/// `phase` that streams `bytes` through device memory at full bandwidth,
/// running `numerics` (the functional body; may be empty) at phase start.
/// `observe` (nullable) first publishes the phase's accesses to an attached
/// checker. Both names are views that must outlive the run. A plain
/// function returning launch_single's task, so a launch adds no frame.
inline sim::Task launch_compute(
    vgpu::HostCtx& h, vgpu::Stream& stream, std::string_view kernel,
    std::string_view phase, double bytes, std::function<void()> numerics,
    std::function<void(vgpu::KernelCtx&)> observe = {}) {
  return h.launch_single(
      stream, kernel,
      [phase, bytes, numerics = std::move(numerics),
       observe = std::move(observe)](vgpu::KernelCtx& k) -> sim::Task {
        if (observe && k.engine().observer() != nullptr) observe(k);
        std::function<void()> f = numerics;
        co_await k.compute(bytes, 1.0, phase, std::move(f));
      });
}

}  // namespace exec
