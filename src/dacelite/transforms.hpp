// Pattern-matched SDFG transformations (paper §5.1, §5.3, §6.2.1).
#pragma once

#include <string_view>

#include "dacelite/ir.hpp"

namespace dacelite {

/// GPUTransform: schedules every map on the GPU and moves host arrays to
/// GPU global storage (the port of the CPU benchmarks to CUDA, §6.2.1).
/// Returns the number of nodes/arrays changed.
int apply_gpu_transform(Sdfg& sdfg);

/// GPUPersistentKernel: fuses the time loop into one persistent cooperative
/// kernel. Requires a GPU-transformed SDFG. Barrier placement uses the
/// relaxed subgraph-edge rule (§5.1): a grid barrier is emitted between
/// consecutive loop-body states only when the earlier state writes an array
/// the later one accesses (wrapping to the next iteration).
void apply_persistent(Sdfg& sdfg);

/// NVSHMEMArray: sets every array referenced by an NVSHMEM library node to
/// the GPU_NVSHMEM symmetric storage (§5.3.3). Returns arrays changed.
int apply_nvshmem_arrays(Sdfg& sdfg);

/// The §6.2.1 porting step as a transformation: Isend -> PutmemSignal
/// (flag = MPI tag, signal value = loop iteration), Irecv -> SignalWait,
/// Waitall dropped in favour of the granular flag-based synchronization.
/// Returns the number of nodes rewritten/removed.
int apply_mpi_to_nvshmem(Sdfg& sdfg);

/// The compile-time expansion choice for signaled puts (§5.3.1), dispatched
/// on the shapes of the library node's source and destination subsets.
enum class PutExpansion : std::uint8_t {
  kContiguousSignal,   // nvshmemx_putmem_signal_nbi(_block)
  kStridedIputSignal,  // nvshmem_<T>_iput + nvshmem_signal_op + quiet
  kSingleElementP,     // nvshmem_<T>_p + nvshmem_signal_op + quiet
};

[[nodiscard]] PutExpansion select_expansion(const Subset& src, const Subset& dst);

/// An enumerable override of the §5.3.1 expansion selection — one axis of
/// the tuner's decision space. `kAuto` reproduces `select_expansion` exactly;
/// a forced choice applies wherever the subset shapes permit and falls back
/// to the nearest legal expansion where they don't (e.g. `kSingleElementP`
/// on a multi-element transfer becomes per-element word stores, which cost
/// like a strided iput).
enum class ExpansionChoice : std::uint8_t {
  kAuto,
  kContiguousSignal,
  kStridedIputSignal,
  kSingleElementP,
};

[[nodiscard]] constexpr std::string_view name(ExpansionChoice c) {
  switch (c) {
    case ExpansionChoice::kAuto: return "auto";
    case ExpansionChoice::kContiguousSignal: return "contiguous_signal";
    case ExpansionChoice::kStridedIputSignal: return "strided_iput";
    case ExpansionChoice::kSingleElementP: return "single_p";
  }
  return "?";
}

/// The expansion actually generated for a signaled put with the given subset
/// shapes under a (possibly forced) choice. kAuto defers to select_expansion
/// bit-for-bit; forced choices degrade as documented on ExpansionChoice.
[[nodiscard]] PutExpansion resolve_expansion(ExpansionChoice choice,
                                             const Subset& src,
                                             const Subset& dst);

}  // namespace dacelite
