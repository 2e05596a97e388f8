// exec::Program: the workload-agnostic execution contract behind every
// driver in the tree.
//
// A workload describes itself as per-iteration phases — local compute,
// neighbour or data-dependent communication, optional global reduction —
// packaged as two kinds of hooks:
//
//  * `host_step`  — one step of a host-driven discrete loop (the kHostLoop
//    compositions). The driver owns stream creation and the loop; the
//    workload only issues the step's launches/copies/waits.
//  * `groups`     — the per-PE persistent block groups (the kPersistent /
//    kPersistentPair compositions). The driver owns the launch (one
//    cooperative launch per kernel per device, one sync at the end) and the
//    per-iteration JOIN protocol (grid.sync() alone for the single-kernel
//    design; grid.sync() plus the local pair handshake for the two-kernel
//    design), handed to the workload as an IterationJoin, so the same group
//    builder serves both persistent launch policies.
//
// A program is built for one (launch, comm, sync) Plan and carries it with
// the run's iteration count and block size: run_program() takes the program
// alone, dispatches on its plan, and no problem shape is baked in. Every
// workload lowers to this one contract: the stencil variants
// (stencil::make_slab_program), the generalized histogram, the one CG solver
// and both dacelite backends.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "exec/policy.hpp"
#include "sim/task.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vshmem/world.hpp"

namespace exec {

/// The launch policy's per-iteration join, handed to Program::groups. The
/// workload must call the matching callback at the end of every iteration of
/// every group body (comm groups call comm_end with `lead` true for exactly
/// one group per PE — the group that speaks for the kernel in the two-kernel
/// handshake), with one exception stated on Program::groups. The callbacks
/// are copyable; group bodies must copy them (the IterationJoin itself lives
/// on the driver's frame).
struct IterationJoin {
  std::function<sim::Task(vgpu::KernelCtx&, bool lead, int t)> comm_end;
  std::function<sim::Task(vgpu::KernelCtx&, int t)> inner_end;
};

/// Deterministic checkpoint store for persistent runs. Every `every`
/// iterations the lead comm group of each PE snapshots the PE's owned state
/// at the iteration join — after every group of the PE committed iteration
/// t and before any t+1 write can touch the captured parity (double
/// buffering isolates it) — so the bytes are a pure function of
/// (workload, t) and identical across --threads and reruns. The capture's
/// DRAM drain is charged to simulated time.
///
/// A snapshot at iteration t is usable for restart only once EVERY PE
/// committed its slice; last_complete() reports the newest such t.
struct CheckpointStore {
  CheckpointStore(int pes, int interval) : n_pes(pes), every(interval) {}

  int n_pes = 0;
  /// Snapshot interval in iterations (0 = never snapshot).
  int every = 0;
  /// snapshots[t][pe] -> that PE's owned interior at the end of iteration t.
  std::map<int, std::map<int, std::vector<double>>> snapshots;

  void put(int t, int pe, std::vector<double> slice) {
    snapshots[t][pe] = std::move(slice);
  }
  /// Newest iteration with a slice from every PE; 0 when none (restart from
  /// scratch).
  [[nodiscard]] int last_complete() const {
    int best = 0;
    for (const auto& [t, slices] : snapshots) {
      if (static_cast<int>(slices.size()) == n_pes && t > best) best = t;
    }
    return best;
  }
  [[nodiscard]] const std::vector<double>& slice(int t, int pe) const {
    return snapshots.at(t).at(pe);
  }
};

/// One PE's persistent block groups, split by role: `comm` groups run the
/// communication protocol, `inner` groups the bulk local compute. The
/// single-kernel composition concatenates them into one cooperative kernel;
/// the two-kernel composition launches them as separate co-resident kernels.
struct ProgramGroups {
  std::vector<vgpu::BlockGroup> comm;
  std::vector<vgpu::BlockGroup> inner;
};

/// An iterative multi-GPU workload and the run it was built for: where it
/// runs, under which plan, for how many iterations. The hooks may capture
/// `plan` and switch on it (the stencil's and the histogram's host steps
/// do). All hooks must stay valid for the run; a hook the plan does not use
/// may be null (e.g. a persistent-only workload needs no host_step), and
/// run_program rejects a program that lacks the hook its plan uses.
///
/// A workload that signals owns its SignalSet. It allocates the set when it
/// builds the program, before run_program creates any stream, and keeps it
/// alive at least as long as the world (World::retain_signals, or a member
/// of the workload's own state), since a final fire-and-forget put_signal
/// may land after the kernels synced.
struct Program {
  /// The PEs the program runs on: the whole machine, or a device slice for
  /// persistent compositions. The machine and the PE count come from it.
  vshmem::World* world = nullptr;
  /// The (launch, comm, sync) composition the program was built for.
  Plan plan;
  int iterations = 1;
  /// Threads per block of a persistent (cooperative) launch.
  int threads_per_block = 1024;

  /// One step of the host-driven loop on device `dev` at iteration `t`.
  /// run_program creates `streams` per device in creation order (index 0
  /// first): two under kOverlapStreams ([0] = compute, [1] = comm), one
  /// otherwise. A step that has nothing left to do (e.g. a converged rank)
  /// returns at its top. Host-loop compositions require a whole-machine
  /// world with PE i on device i (one host thread per device, like every
  /// discrete baseline); run_program rejects any other.
  std::function<sim::Task(vgpu::HostCtx&, int dev, int t,
                          std::span<vgpu::Stream* const> streams)>
      host_step = nullptr;

  /// Persistent compositions: PE `dev`'s block groups under `join`.
  ///
  /// A program may omit the join only when it returns one group per PE, has
  /// no `capture` hook, and runs under the single-kernel plan (kPersistent)
  /// alone. The join is then a grid.sync() of one group: it orders nothing
  /// and only charges its latency, and no checkpoint or pair handshake
  /// hangs off it. Matrix-free CG omits it (its timeline never had a
  /// per-iteration grid sync), and so does the dacelite persistent backend
  /// (the SDFG places its own grid barriers); neither's entry points accept
  /// another plan.
  std::function<ProgramGroups(int dev, const IterationJoin& join)> groups =
      nullptr;

  /// Checkpoint hook (nullable): PE `pe`'s owned state at the end of
  /// iteration `t`, read under the capture-safety window described on
  /// CheckpointStore. Only consulted when `checkpoints` is set with a
  /// positive interval.
  std::function<std::vector<double>(int pe, int t)> capture = nullptr;
  /// Persistent compositions: the store `capture` snapshots into (null = no
  /// checkpoints). It must outlive the run.
  CheckpointStore* checkpoints = nullptr;
};

/// Runs `program` under its plan, driving the machine to completion. Throws
/// std::invalid_argument, before calling any hook or creating anything, for
/// a plan that fails exec::valid() or a host-loop plan on any world but the
/// whole machine (naming the offending policy component), and for a
/// program without the hook its plan uses (naming the hook); and
/// vgpu::CooperativeLaunchError when a persistent composition exceeds the
/// co-residency limit. A persistent composition is
/// run_program_persistent_task's launch plus engine.run(): both run on the
/// program's world, which may be a device slice.
void run_program(const Program& program);

/// Spawnable form of either persistent composition: builds the kernels,
/// launches them on the world's physical devices and co_awaits every
/// device's final sync WITHOUT driving the engine — the caller (e.g. the
/// multi-tenant job server) owns the engine. The program must outlive the
/// returned task.
sim::Task run_program_persistent_task(const Program& program);

/// A spawnable job computes under its World's mode: World::functional()
/// decides whether puts copy payloads, `options.functional` how the job sizes
/// and fills its arrays. `fn` rejects options that disagree with
/// std::invalid_argument, naming both values (a timing-only job on a
/// functional World would copy halos out of one-element arrays).
void check_mode(std::string_view fn, const RunOptions& options,
                const vshmem::World& world);

}  // namespace exec
