// LaunchPolicy primitives: who drives the time loop.
//
//  * host_loop          — one host thread per device runs a per-step body
//    for t = 1..iterations (the discrete baselines and the DaCe-generated
//    host program share this skeleton);
//  * discrete_blocks    — grid size of a discrete launch covering N points.
//
// The persistent policies have one launcher, cpufree::spawn_persistent
// (the whole CPU-Free host program: one cooperative launch per kernel per
// device, one sync at the very end, §3.1.1); exec::run_program composes it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/intmath.hpp"
#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/machine.hpp"

namespace exec {

/// Blocks for a discrete (non-cooperative) launch covering `points` points:
/// exact integer ceil-div (sim::ceil_div), at least one block.
[[nodiscard]] constexpr int discrete_blocks(std::size_t points,
                                            int threads_per_block) {
  const std::size_t blocks =
      sim::ceil_div(points, static_cast<std::size_t>(threads_per_block));
  return blocks < 1 ? 1 : static_cast<int>(blocks);
}

/// One step of a host-driven discrete loop on one device's host thread.
using HostStepFn = std::function<sim::Task(vgpu::HostCtx&, int dev, int t)>;

/// LaunchPolicy::kHostLoop: every device gets a host thread that runs
/// `step(h, dev, t)` for t = 1..iterations. Streams and per-device state
/// belong to the caller (captured inside `step`). The optional `stop`
/// predicate is consulted before each step — a data-dependent termination
/// test (CG convergence) sets it from inside the step.
inline void host_loop(vgpu::Machine& machine, int iterations, HostStepFn step,
                      std::function<bool(int dev)> stop = {}) {
  machine.run_host_threads(
      [&machine, iterations, &step, &stop](int dev) -> sim::Task {
        vgpu::HostCtx h(machine, dev);
        for (int t = 1; t <= iterations; ++t) {
          if (stop && stop(dev)) co_return;
          CO_AWAIT(step(h, dev, t));
        }
      });
}

}  // namespace exec
