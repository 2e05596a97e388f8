// The evaluated code variants (paper §6.1.1) as execution-policy triples.
//
// Every variant is a (launch, comm, sync) composition from the exec layer:
//
//  * Baseline Copy     — (host_loop,       staged_copy,     host_barrier)
//  * Baseline Overlap  — (host_loop,       overlap_streams, host_barrier)
//  * Baseline P2P      — (host_loop,       peer_store,      host_barrier)
//  * Baseline NVSHMEM  — (host_loop,       signaled_put,    stream_sync)
//  * CPU-Free          — (persistent,      signaled_put,    iteration_flags)
//  * CPU-Free PERKS    — CPU-Free with the PERKS cached inner kernel
//  * CPU-Free 2-kernel — (persistent_pair, signaled_put,    iteration_flags)
//
// This header maps a Variant to its exec::Plan and declares the factory
// that lowers a SlabStencil to an exec::Program under it; the per-variant
// step bodies and persistent groups live in variants.cpp, and
// exec::run_program runs them like every other workload.
#pragma once

#include "cpufree/metrics.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "stencil/config.hpp"
#include "stencil/problems.hpp"
#include "stencil/slab.hpp"

namespace stencil {

/// The (launch, comm, sync) triple a variant composes (§6.1.1 ↔ §4.1).
[[nodiscard]] constexpr exec::Plan plan_for(Variant v) {
  using exec::CommPolicy;
  using exec::LaunchPolicy;
  using exec::SyncPolicy;
  switch (v) {
    case Variant::kBaselineCopy:
      return {LaunchPolicy::kHostLoop, CommPolicy::kStagedCopy,
              SyncPolicy::kHostBarrier, "stencil"};
    case Variant::kBaselineOverlap:
      return {LaunchPolicy::kHostLoop, CommPolicy::kOverlapStreams,
              SyncPolicy::kHostBarrier, "stencil"};
    case Variant::kBaselineP2P:
      return {LaunchPolicy::kHostLoop, CommPolicy::kPeerStore,
              SyncPolicy::kHostBarrier, "stencil_p2p"};
    case Variant::kBaselineNvshmem:
      return {LaunchPolicy::kHostLoop, CommPolicy::kSignaledPut,
              SyncPolicy::kStreamSync, "stencil_nvshmem"};
    case Variant::kCpuFree:
      return {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
              SyncPolicy::kIterationFlags, "cpu_free"};
    case Variant::kCpuFreePerks:
      return {LaunchPolicy::kPersistent, CommPolicy::kSignaledPut,
              SyncPolicy::kIterationFlags, "cpu_free_perks"};
    case Variant::kCpuFreeTwoKernels:
      return {LaunchPolicy::kPersistentPair, CommPolicy::kSignaledPut,
              SyncPolicy::kIterationFlags, "cpu_free"};
  }
  return {};
}

/// Builds `v`'s exec::Program over `S`: plan_for(v), with the iteration
/// count and block size of the stencil's config. One factory serves both the
/// bench runner (run_variant) and the serve workload path, so jobs and
/// figures can never drift apart. Building a program whose plan signals
/// allocates the halo SignalSet and hands it to the stencil's World
/// (World::retain_signals). The hooks capture the SlabStencil by reference
/// (it must outlive every run) and the plan, variant and signals by value,
/// so a program may be copied and edited (e.g. to layer checkpointing on).
/// Explicitly instantiated for Jacobi2D and Jacobi3D in variants.cpp, which
/// holds the compositions.
template <class P>
exec::Program make_slab_program(SlabStencil<P>& S, Variant v);

extern template exec::Program make_slab_program(SlabStencil<Jacobi2D>& S,
                                                Variant v);
extern template exec::Program make_slab_program(SlabStencil<Jacobi3D>& S,
                                                Variant v);

/// Runs `variant` over a prepared SlabStencil and returns timing metrics.
template <class P>
StencilResult run_variant(SlabStencil<P>& S, Variant v) {
  vgpu::Machine& m = S.machine();
  const StencilConfig& cfg = S.config();
  m.trace().set_enabled(cfg.trace);

  exec::run_program(make_slab_program(S, v));

  StencilResult r;
  r.metrics = cpufree::analyze_run(m.trace(), m.engine().now(),
                                   cfg.iterations);
  cpufree::apply_fault_stats(r.metrics, m.faults().stats());
  r.final_parity = cfg.iterations & 1;
  return r;
}

}  // namespace stencil
