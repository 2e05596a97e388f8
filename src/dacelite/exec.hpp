// SDFG code generation / execution on the virtual multi-GPU node.
//
// Two backends mirror the paper's §6.2.2 variants:
//  * execute_discrete  — the existing DaCe distributed workflow: per
//    iteration, per state, the host launches discrete kernels for GPU maps
//    and drives MPI library nodes with stream synchronizations and staging
//    copies in between (Fig. 5.1). It lowers to an exec::Program host step
//    under the (host_loop, staged_copy, host_barrier) plan.
//  * execute_persistent — the CPU-Free workflow this work adds: one
//    cooperative persistent kernel per device; NVSHMEM library nodes expand
//    in-kernel with the §5.3.1 shape-based specialization, conservatively
//    scheduled in a single thread followed by a grid barrier (§5.3.2), with
//    the relaxed state-edge barrier placement computed by apply_persistent.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>

#include "cpufree/metrics.hpp"
#include "dacelite/ir.hpp"
#include "dacelite/pass.hpp"
#include "hostmpi/comm.hpp"
#include "sim/task.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace dacelite {

struct ExecOptions {
  int iterations = -1;  // -1: use sdfg.default_iterations
  /// Must equal the ProgramData's mode, which decides whether the numerics
  /// run; every entry point throws std::invalid_argument when they differ.
  bool functional = true;
  bool trace = true;
  /// Threads per block of the persistent backend's cooperative launch: it
  /// caps the co-resident blocks and sizes the software-tiling model. A
  /// discrete launch has no grid size, so the discrete backend ignores it.
  int threads_per_block = 1024;
  /// Co-resident blocks per device for the persistent backend; 0 (default)
  /// derives one block per SM from MachineSpec::sm_count at launch time.
  int persistent_blocks = 0;
  /// Ablation: use blocking puts instead of the default nonblocking (nbi)
  /// expansion (§5.3.2).
  bool blocking_puts = false;
  /// Ablation: the "Mapped" specialization of §5.3.2 — contiguous transfers
  /// expand to single-element nvshmem_<T>_p calls issued by many GPU threads
  /// inside a Map (word-granularity remote stores, so they cannot saturate
  /// the link), followed by the manual signal_op + quiet pair.
  bool mapped_p_expansion = false;
  /// Tunable override of the §5.3.1 put-expansion selection; kAuto (the
  /// default) reproduces select_expansion bit-for-bit.
  ExpansionChoice expansion = ExpansionChoice::kAuto;
};

/// ExecOptions carrying a Recipe's execution parameters (everything else —
/// iterations, functional, trace, ablation flags — stays at its default).
[[nodiscard]] ExecOptions exec_options(const Recipe& recipe);

struct ExecResult {
  cpufree::RunMetrics metrics;
  int iterations = 0;
  /// Resolved co-resident blocks per device (persistent backend; 0 for the
  /// discrete backend) — the value the software-tiling model actually used.
  int persistent_blocks = 0;
  /// The put expansions the run generated, '+'-joined (e.g.
  /// "contiguous_signal+strided_iput"), "mpi" for the discrete backend.
  std::string put_expansion;
};

/// Static audit of the expansion each NVSHMEM signaled put expands to under
/// `options` (including the blocking/mapped ablations): the distinct labels,
/// '+'-joined in sorted order; "none" when the SDFG has no signaled puts.
/// With `size` > 0, nodes guarded off for every rank of a `size`-rank run
/// are skipped (they generate no code).
[[nodiscard]] std::string describe_put_expansions(const Sdfg& sdfg,
                                                  const ExecOptions& options,
                                                  int size = 0);

/// Per-rank array instances bound to the symmetric heap, plus the signal
/// variables used by NVSHMEM nodes. In timing-only mode instances are
/// placeholders and payload copies are skipped (World::set_functional).
class ProgramData {
 public:
  ProgramData(vshmem::World& world, const Sdfg& sdfg, bool functional);

  [[nodiscard]] std::span<double> local(const std::string& array, int rank) {
    return arrays_.at(array).on(rank);
  }
  [[nodiscard]] vshmem::Sym<double>& sym(const std::string& array) {
    return arrays_.at(array);
  }
  [[nodiscard]] vshmem::SignalSet& signals() { return *signals_; }
  /// The world the arrays live in.
  [[nodiscard]] vshmem::World& world() { return *world_; }
  [[nodiscard]] bool functional() const { return functional_; }

  /// ExecCtx for functional node bodies on `rank` at iteration `t`.
  [[nodiscard]] ExecCtx ctx(int rank, int size, int t);

 private:
  std::map<std::string, vshmem::Sym<double>> arrays_;
  std::unique_ptr<vshmem::SignalSet> signals_;
  vshmem::World* world_;
  bool functional_;
};

/// Largest signal index used by NVSHMEM nodes (for SignalSet sizing).
[[nodiscard]] int max_signal_index(const Sdfg& sdfg);

/// Runs the SDFG with the CPU-controlled discrete backend (MPI nodes).
/// The SDFG must have been GPU-transformed.
ExecResult execute_discrete(vgpu::Machine& machine, hostmpi::Comm& comm,
                            ProgramData& data, const Sdfg& sdfg,
                            ExecOptions options);

/// Runs the SDFG with the CPU-Free persistent backend (NVSHMEM nodes).
/// The SDFG must have been GPU-transformed and persistent-transformed.
ExecResult execute_persistent(vgpu::Machine& machine, vshmem::World& world,
                              ProgramData& data, const Sdfg& sdfg,
                              ExecOptions options);

/// Spawnable variant of execute_persistent for an externally-driven engine
/// (the multi-tenant job server): same checks and kernel bodies on the
/// ProgramData's World, but it never touches the machine-wide trace and
/// completes when every PE's persistent kernel drains instead of driving
/// the engine itself. In both forms the World may be a device slice.
/// `data`, `sdfg`, and `*result` must outlive the task. Fills
/// result->iterations / persistent_blocks / put_expansion; result->metrics
/// stays empty (per-job timing is the caller's concern).
sim::Task execute_persistent_task(ProgramData& data, const Sdfg& sdfg,
                                  ExecOptions options,
                                  ExecResult* result = nullptr);

}  // namespace dacelite
