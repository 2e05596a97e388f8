// Execution-policy vocabulary: the paper's three orthogonal choices.
//
// A multi-GPU program is the composition of
//   * WHO drives the time loop      — LaunchPolicy  (§3.1.1, §4.1),
//   * HOW halos move                — CommPolicy    (§3.1.4, §6.1.1),
//   * HOW ranks synchronize a step  — SyncPolicy    (§2.2, §4.1.1),
// and every evaluated variant is one (launch, comm, sync) triple. The
// enums below name the mechanisms; an exec::Plan composes them; the
// primitives in launch.hpp / comm.hpp / sync.hpp implement them; and
// run_program (program.hpp) runs any workload lowered to an exec::Program
// under any valid composition: the stencil variants, CG, the histogram and
// the dacelite persistent backend. RunOptions are the run options every
// workload config shares.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "vgpu/costmodel.hpp"

namespace sim {
class Observer;
}

namespace exec {

/// Who drives the time loop.
enum class LaunchPolicy : std::uint8_t {
  kHostLoop,        // host-driven discrete loop: one+ kernel launches per step
  kPersistent,      // one persistent cooperative kernel per device (§3.1.1)
  kPersistentPair,  // two co-resident persistent kernels per device (§4 alt.)
};

/// How halo data moves between neighbouring ranks.
enum class CommPolicy : std::uint8_t {
  kStagedCopy,      // host-issued async memcpys in the compute stream
  kOverlapStreams,  // staged memcpys + boundary kernel in a second stream
  kPeerStore,       // device-initiated P2P stores from inside the kernel
  kSignaledPut,     // device-side signaled puts via vshmem (§3.1.4)
};

/// How ranks synchronize at step boundaries.
enum class SyncPolicy : std::uint8_t {
  kHostBarrier,     // stream sync(s) + host-wide barrier every step
  kStreamSync,      // stream sync(s) only; devices already agreed
  kIterationFlags,  // device iteration-flag semaphores (cpufree/halo.hpp)
};

[[nodiscard]] constexpr std::string_view name(LaunchPolicy p) {
  switch (p) {
    case LaunchPolicy::kHostLoop: return "host_loop";
    case LaunchPolicy::kPersistent: return "persistent";
    case LaunchPolicy::kPersistentPair: return "persistent_pair";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view name(CommPolicy p) {
  switch (p) {
    case CommPolicy::kStagedCopy: return "staged_copy";
    case CommPolicy::kOverlapStreams: return "overlap_streams";
    case CommPolicy::kPeerStore: return "peer_store";
    case CommPolicy::kSignaledPut: return "signaled_put";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view name(SyncPolicy p) {
  switch (p) {
    case SyncPolicy::kHostBarrier: return "host_barrier";
    case SyncPolicy::kStreamSync: return "stream_sync";
    case SyncPolicy::kIterationFlags: return "iteration_flags";
  }
  return "?";
}

/// One named composition of the three policies. `kernel_name` labels the
/// launched kernels in traces (a view: must outlive the run; the variant
/// tables use string literals).
struct Plan {
  LaunchPolicy launch = LaunchPolicy::kHostLoop;
  CommPolicy comm = CommPolicy::kStagedCopy;
  SyncPolicy sync = SyncPolicy::kHostBarrier;
  std::string_view kernel_name = "kernel";
};

/// A plan is valid when its pieces can actually compose: persistent kernels
/// cannot be driven by host-side barriers (the host is out of the loop), and
/// device-initiated comm under a host loop needs the host to pace steps.
[[nodiscard]] constexpr bool valid(const Plan& p) {
  const bool persistent = p.launch != LaunchPolicy::kHostLoop;
  if (persistent) {
    // The host only launches and waits; everything else is device-side.
    return p.comm == CommPolicy::kSignaledPut &&
           p.sync == SyncPolicy::kIterationFlags;
  }
  switch (p.comm) {
    case CommPolicy::kStagedCopy:
    case CommPolicy::kOverlapStreams:
    case CommPolicy::kPeerStore:
      // Host-initiated or kernel-embedded stores: the host must fence the
      // step (barrier) — there is no device-side arrival signal to wait on.
      return p.sync == SyncPolicy::kHostBarrier;
    case CommPolicy::kSignaledPut:
      // Arrival is signalled on the devices; the host only paces its stream.
      return p.sync == SyncPolicy::kStreamSync ||
             p.sync == SyncPolicy::kIterationFlags;
  }
  return false;
}

/// Names the policy component that breaks an invalid composition and why,
/// e.g. "sync: persistent launches pace iterations with device-side flag
/// semaphores (sync must be iteration_flags, got host_barrier)". Empty for
/// valid plans.
[[nodiscard]] inline std::string invalid_plan_detail(const Plan& p) {
  if (valid(p)) return {};
  std::string why;
  if (p.launch != LaunchPolicy::kHostLoop) {
    // Persistent launches: the host is out of the loop, so halos must move
    // device-side and steps must pace on device flags.
    if (p.comm != CommPolicy::kSignaledPut) {
      why += "comm: ";
      why += name(p.launch);
      why += " launches are device-driven and need device-initiated halo "
             "delivery (comm must be signaled_put, got ";
      why += name(p.comm);
      why += ')';
    } else {
      why += "sync: ";
      why += name(p.launch);
      why += " launches pace iterations with device-side flag semaphores "
             "(sync must be iteration_flags, got ";
      why += name(p.sync);
      why += ')';
    }
    return why;
  }
  if (p.comm != CommPolicy::kSignaledPut) {
    why += "sync: host_loop with ";
    why += name(p.comm);
    why += " has no device-side arrival signal to wait on (sync must be "
           "host_barrier, got ";
    why += name(p.sync);
    why += ')';
    return why;
  }
  why += "sync: host_loop with signaled_put already agrees on arrival "
         "device-side (sync must be stream_sync or iteration_flags, got ";
  why += name(p.sync);
  why += ')';
  return why;
}

/// "<fn>: invalid plan (launch=…, comm=…, sync=…): <component detail>" —
/// the std::invalid_argument text every driver throws for invalid plans.
[[nodiscard]] inline std::string invalid_plan_message(std::string_view fn,
                                                      const Plan& p) {
  std::string msg(fn);
  msg += ": invalid plan (launch=";
  msg += name(p.launch);
  msg += ", comm=";
  msg += name(p.comm);
  msg += ", sync=";
  msg += name(p.sync);
  msg += "): ";
  msg += invalid_plan_detail(p);
  return msg;
}

/// The run options every workload config shares, declared once: the
/// stencil, CG, sparse-CG and histogram configs derive from it.
struct RunOptions {
  /// false = timing-only mode: skip the numerics, leaving nothing to verify
  /// (large benchmark domains use it); control flow, synchronization and
  /// costs are identical.
  bool functional = true;
  /// Record the trace's category unions (needed for comm/overlap metrics).
  bool trace = true;
  /// Threads per block of a persistent (cooperative) launch: it caps the
  /// co-resident blocks and sizes the persistent tiling models. A discrete
  /// launch has no grid size and ignores it.
  int threads_per_block = 1024;
  /// Co-resident blocks for persistent launches. 0 (default) derives "one
  /// block of 1024 threads on each SM" (§6.1.2) from MachineSpec::sm_count
  /// at plan-build time (resolve_persistent_blocks); a positive value
  /// overrides it.
  int persistent_blocks = 0;
  /// Optional execution observer (race/deadlock checker); attached to the
  /// engine before any allocation or launch. Never affects simulated time.
  sim::Observer* observer = nullptr;
};

/// Resolves the number of co-resident blocks for persistent launches at
/// plan-build time: an explicit positive request wins; 0 derives the
/// paper's "one block of 1024 threads on each SM" default (§6.1.2) from the
/// machine model instead of hardcoding the A100's 108. Either way the result
/// is clamped against the cooperative-launch occupancy cap
/// (DeviceSpec::max_cooperative_blocks) so an oversized request degrades to
/// the largest launchable grid instead of failing at launch time.
/// `threads_per_block` <= 0 evaluates the cap at the device's maximum block
/// size (the launch configuration the persistent backends default to).
[[nodiscard]] constexpr int resolve_persistent_blocks(
    int requested, const vgpu::MachineSpec& spec, int threads_per_block = 0) {
  const int chosen = requested > 0 ? requested : spec.device.sm_count;
  const int tpb = threads_per_block > 0 ? threads_per_block
                                        : spec.device.max_threads_per_block;
  const int cap = spec.device.max_cooperative_blocks(tpb);
  return cap > 0 && chosen > cap ? cap : chosen;
}

}  // namespace exec
