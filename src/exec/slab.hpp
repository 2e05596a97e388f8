// The slab-problem execution driver: runs a 1D-decomposed iterative problem
// under any valid (launch, comm, sync) Plan.
//
// A problem hands its per-step bodies over as a type-erased SlabProgram
// (built by stencil::SlabStencil, but nothing here depends on the stencil
// layer), plus the knobs a composition needs (block split, inner-kernel cost
// model). run_slab() composes the launch/comm/sync primitives into the
// seven evaluated shapes — one driver instead of seven monolithic variants.
#pragma once

#include <cstddef>
#include <functional>

#include "cpufree/partition.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "sim/task.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace exec {

/// Type-erased view of a slab-decomposed iterative problem: geometry, cost
/// helpers and functional bodies. All hooks must stay valid for the run.
struct SlabProgram {
  vgpu::Machine* machine = nullptr;
  vshmem::World* world = nullptr;
  int n_pes = 0;
  std::size_t plane = 0;   // points per slab
  double halo_bytes = 0.0; // one boundary slab on the wire

  /// Interior slabs owned by device `dev`.
  std::function<std::size_t(int dev)> rows;
  /// Local points (rows * plane) as the cost models consume them.
  std::function<double(int dev)> local_points;
  /// Streaming DRAM bytes for updating `nslabs` slabs.
  std::function<double(double nslabs)> compute_bytes;
  /// Functional update of local slabs [r0, r1) at iteration `t` (nullable).
  std::function<std::function<void()>(int dev, int t, std::size_t r0,
                                      std::size_t r1)>
      update_body;
  /// Functional payload of a host/peer halo copy (nullable).
  std::function<std::function<void()>(int dev, bool to_top, int t)>
      halo_deliver;
  /// Symmetric double buffer of parity `t & 1` (signaled-put comm, and the
  /// checker's halo-range publication under every comm policy).
  std::function<vshmem::Sym<double>&(int parity)> buffer;
  /// Element offsets of the sent boundary slab / the receiving halo slab.
  std::function<std::size_t(int pe, bool to_top)> send_offset;
  std::function<std::size_t(int neighbor_pe, bool to_top)> recv_offset;
};

/// Inner-kernel cost refinement: PERKS caching versus plain streaming with
/// the software-tiling penalty (§4.1.4). Effective inner bytes are
/// compute_bytes(inner_slabs) * traffic_factor / tiling_efficiency.
struct InnerModel {
  double traffic_factor = 1.0;
  double tiling_efficiency = 1.0;
};

/// Knobs of a composition that are problem- or benchmark-config-driven: the
/// run's (iterations, block size, checkpointing) plus the slab-only ones.
struct SlabExecParams : ProgramExecParams {
  /// Co-resident blocks for persistent launches; 0 derives from the machine
  /// (resolve_persistent_blocks).
  int persistent_blocks = 0;
  /// Scope of device-initiated signaled puts.
  vshmem::Scope comm_scope = vshmem::Scope::kBlock;
  /// Boundary/inner block split for persistent launches.
  std::function<cpufree::TbPartition(int dev, int tb_total)> partition;
  /// Inner-kernel cost model for persistent launches.
  std::function<InnerModel(int dev, int inner_resident_threads)> inner_model;
};

/// Runs `program` under `plan`. Throws std::invalid_argument for plans that
/// fail exec::valid() and vgpu::CooperativeLaunchError when a persistent
/// composition exceeds the co-residency limit.
void run_slab(const SlabProgram& program, const Plan& plan,
              const SlabExecParams& params);

/// Spawnable form of either persistent composition (see
/// run_program_persistent_task): co_awaits every device's final sync WITHOUT
/// driving the engine — the caller (e.g. the multi-tenant job server) owns
/// the engine and may run many such tasks concurrently on one machine. The
/// program's world may be a device slice, in this form and in run_slab.
sim::Task run_slab_persistent_task(const SlabProgram& program, const Plan& plan,
                                   const SlabExecParams& params);

}  // namespace exec
