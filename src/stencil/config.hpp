// Configuration and result types for the stencil benchmarks.
#pragma once

#include <cstdint>
#include <string_view>

#include "cpufree/metrics.hpp"
#include "exec/policy.hpp"
#include "vshmem/world.hpp"

namespace stencil {

/// The code variants evaluated in the paper (§6.1.1).
enum class Variant : std::uint8_t {
  kBaselineCopy,     // CPU-controlled, async memcpy halos, no explicit overlap
  kBaselineOverlap,  // boundary kernel + memcpys in a second stream; host
                     // syncs both streams
  kBaselineP2P,      // device-side direct stores, host-side synchronization
  kBaselineNvshmem,  // discrete kernels with device NVSHMEM comm + sync kernel
  kCpuFree,          // persistent kernel, TB specialization, signaled puts
  kCpuFreePerks,     // CPU-Free with the PERKS cached inner kernel
  /// The §4 alternative design: TWO co-resident persistent kernels per
  /// device in separate streams — one for boundary+communication, one for
  /// the inner domain — synchronized per iteration by busy-waiting on flags
  /// in local device memory instead of grid.sync(). The paper reports "no
  /// significant performance improvement or degradation" vs the
  /// single-kernel design.
  kCpuFreeTwoKernels,
};

[[nodiscard]] constexpr std::string_view variant_name(Variant v) {
  switch (v) {
    case Variant::kBaselineCopy: return "baseline_copy";
    case Variant::kBaselineOverlap: return "baseline_overlap";
    case Variant::kBaselineP2P: return "baseline_p2p";
    case Variant::kBaselineNvshmem: return "baseline_nvshmem";
    case Variant::kCpuFree: return "cpu_free";
    case Variant::kCpuFreePerks: return "cpu_free_perks";
    case Variant::kCpuFreeTwoKernels: return "cpu_free_two_kernels";
  }
  return "?";
}

constexpr Variant kAllVariants[] = {
    Variant::kBaselineCopy,    Variant::kBaselineOverlap,
    Variant::kBaselineP2P,     Variant::kBaselineNvshmem,
    Variant::kCpuFree,         Variant::kCpuFreePerks,
};

/// How the CPU-Free variant splits thread blocks between boundary and inner
/// work (ablation of the §4.1.2 allocation formula).
enum class TbPolicy : std::uint8_t {
  kProportional,  // the paper's formula (default)
  kSingleBlock,   // one TB per boundary regardless of balance
  kEqualSplit,    // one third of the blocks per group
};

struct StencilConfig : exec::RunOptions {
  int iterations = 10;
  /// false = the paper's "no compute" mode (Fig. 2.2a, Fig. 6.2 middle):
  /// full control flow and communication, zero computation cost.
  bool compute_enabled = true;
  /// Boundary/inner thread-block allocation policy (CPU-Free variants).
  TbPolicy tb_policy = TbPolicy::kProportional;
  /// Scope of device-initiated puts: block-cooperative (paper's choice) or
  /// thread-scoped (ablation; what a single thread can sustain).
  vshmem::Scope comm_scope = vshmem::Scope::kBlock;
};

struct StencilResult {
  cpufree::RunMetrics metrics;
  int final_parity = 0;  // buffer holding the final values
};

}  // namespace stencil
