// Kernel launch configuration and the in-kernel execution context.
//
// A simulated kernel is a set of *block groups*: disjoint sets of thread
// blocks that behave as units of concurrency. A conventional data-parallel
// kernel is one group; a CPU-Free thread-block-specialized kernel is several
// (boundary/communication groups plus an inner-compute group, per the paper's
// Figure 4.1). Cooperative launches get a grid-wide barrier and are validated
// against the device's co-residency limit, mirroring the Cooperative Groups
// API restriction discussed in §4.1.4.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "vgpu/machine.hpp"

namespace vgpu {

class KernelCtx;

struct LaunchConfig {
  /// Block size of a cooperative launch: with the block count it meets the
  /// device's co-residency cap. A discrete launch reads neither.
  int threads_per_block = 1024;
  bool cooperative = false;
  /// Display name. A view so LaunchConfig stays trivially destructible (see
  /// the CO_AWAIT note in sim/task.hpp); the viewed string must outlive the
  /// launch (string literals always do).
  std::string_view name = "kernel";
};

struct BlockGroup {
  std::string_view name;
  int blocks = 1;
  std::function<sim::Task(KernelCtx&)> fn;
};

/// Thrown when a cooperative launch requests more blocks than can be
/// co-resident (the Cooperative Groups limitation; §4.1.4).
class CooperativeLaunchError : public std::runtime_error {
 public:
  CooperativeLaunchError(int requested, int limit)
      : std::runtime_error("cooperative launch of " + std::to_string(requested) +
                           " blocks exceeds co-residency limit of " +
                           std::to_string(limit)),
        requested_blocks(requested),
        coresident_limit(limit) {}
  int requested_blocks;
  int coresident_limit;
};

/// Execution context handed to each block group's coroutine.
class KernelCtx {
 public:
  KernelCtx(Machine& machine, Device& device, int lane, int group_index,
            int blocks, int total_blocks, sim::Barrier* grid_barrier)
      : machine_(&machine),
        device_(&device),
        lane_(lane),
        group_index_(group_index),
        blocks_(blocks),
        total_blocks_(total_blocks),
        grid_barrier_(grid_barrier) {}

  [[nodiscard]] Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] Device& device() noexcept { return *device_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return machine_->engine(); }
  [[nodiscard]] int device_id() const noexcept { return device_->id(); }
  [[nodiscard]] int lane() const noexcept { return lane_; }
  [[nodiscard]] int group_index() const noexcept { return group_index_; }
  [[nodiscard]] int blocks() const noexcept { return blocks_; }
  [[nodiscard]] int total_blocks() const noexcept { return total_blocks_; }
  [[nodiscard]] sim::Nanos now() const noexcept { return machine_->engine().now(); }
  [[nodiscard]] bool cooperative() const noexcept { return grid_barrier_ != nullptr; }

  /// Occupies this group for `d` simulated ns; records a trace interval.
  sim::Task busy(sim::Nanos d, sim::Cat cat, std::string_view name);

  /// A compute phase that streams `dram_bytes` through device memory using a
  /// `bw_fraction` share of the streaming bandwidth. Runs `body` (the
  /// functional numerics, may be empty) at phase start.
  sim::Task compute(double dram_bytes, double bw_fraction, std::string_view name,
                    std::function<void()> body = {});

  /// Cooperative-groups grid.sync(): rendezvous of all block groups in this
  /// kernel plus the barrier cost. Throws if the launch was not cooperative.
  sim::Task grid_sync();

  /// Device-initiated peer store of `bytes` to `dst_device` (UVA P2P path).
  /// `deliver` runs when the payload lands in the destination memory.
  /// `obs_read`/`obs_write` describe the moved bytes to an attached checker;
  /// the store is synchronous from the group's perspective, so completion
  /// rejoins the group's timeline.
  sim::Task peer_put(int dst_device, double bytes, std::string_view name,
                     std::function<void()> deliver = {},
                     sim::MemRange obs_read = {}, sim::MemRange obs_write = {});

  /// Spin-waits until `flag <cmp> rhs`, charging the device poll granularity
  /// once the condition becomes true; records a kSync interval. The wait is
  /// registered with the engine's open-wait registry, so an end-of-run hang
  /// names this group and wait site.
  sim::Task spin_wait(sim::Flag& flag, sim::Cmp cmp, std::int64_t rhs,
                      std::string_view name);

  /// Watchdog-guarded spin wait: like spin_wait, but gives up after
  /// `timeout` simulated ns. Sets `*satisfied` (must be non-null) to whether
  /// the predicate held before the deadline; on expiry publishes
  /// Observer::on_signal_wait_timeout and returns without charging the poll
  /// granularity (the caller is about to run recovery).
  sim::Task spin_wait_for(sim::Flag& flag, sim::Cmp cmp, std::int64_t rhs,
                          sim::Nanos timeout, std::string_view name,
                          bool* satisfied);

  /// This group's checker identity.
  [[nodiscard]] sim::Actor obs_actor() const noexcept {
    return sim::Actor::group(device_->id(), lane_, group_index_);
  }
  /// Publishes an application memory access (halo-region granularity) to an
  /// attached checker; no-op when none is attached.
  void obs_access(const sim::MemRange& range, bool is_write,
                  std::string_view what) {
    if (sim::Observer* o = machine_->engine().observer()) {
      o->on_access(obs_actor(), range, is_write, what);
    }
  }

 private:
  Machine* machine_;
  Device* device_;
  int lane_;
  int group_index_;
  int blocks_;
  int total_blocks_;
  sim::Barrier* grid_barrier_;
};

/// Executes a kernel body (all groups concurrently, optional grid barrier) on
/// `device`. This is the device-side part of a launch: callers are expected
/// to have already charged host-side issue costs. Records the kernel
/// envelope in the trace. Used by HostCtx::launch and by the CPU-Free
/// cooperative launcher.
sim::Task run_kernel(Machine& machine, Device& device, int lane,
                     LaunchConfig config, std::vector<BlockGroup> groups);

/// Total blocks across groups.
[[nodiscard]] int total_blocks(const std::vector<BlockGroup>& groups);

}  // namespace vgpu
