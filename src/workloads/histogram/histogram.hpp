// Generalized multi-GPU histogram on the CPU-Free model.
//
// The first genuinely IRREGULAR workload in the tree (futhark-cgo20's
// generalized-histogram benchmarks, MGMark's atomic-style kernels): every
// PE draws a deterministic stream of (bin, weight) keys each round and the
// global bins are owner-partitioned across PEs, so a round's communication
// is DATA-DEPENDENT — which owners a PE talks to, and how many bin slots
// travel, follow from the key stream, not from a fixed halo geometry. A
// skew knob concentrates keys onto low bins, making the owner partition
// deliberately imbalanced and the signaled puts to the hot owner contended.
//
// Aggregation protocol (one round):
//   1. local    — each PE accumulates its keys into per-owner partial rows
//                 (key order preserved, so results are bitwise-stable),
//   2. flush    — each partial row travels to its owner via a contended
//                 signaled put (flow-controlled by the owner's ack of the
//                 previous round),
//   3. merge    — the owner folds its own row plus every inbox row into its
//                 bin slice in fixed source order (bitwise determinism
//                 regardless of arrival order),
//   4. ack      — the owner releases each source for the next round.
//
// The workload is expressed as an exec::Program, so the same phase hooks
// run under every valid (launch, comm, sync) policy triple: host-staged
// copies, overlapped streams, device peer stores, host-launched signaled
// puts, and both persistent designs. Checker-facing accesses publish the
// TOUCHED bin ranges computed from the key streams — data-dependent
// ranges, which is exactly what the happens-before checker has never been
// fed by the regular slab workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cpufree/metrics.hpp"
#include "exec/policy.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "vgpu/costmodel.hpp"
#include "vshmem/world.hpp"

namespace workloads {

struct HistogramConfig : exec::RunOptions {
  /// Histogram kernels launch 256 threads per block unless set otherwise.
  HistogramConfig() { threads_per_block = 256; }

  /// Global bin count, owner-partitioned across PEs (slab-style split).
  std::size_t bins = 256;
  /// Keys drawn per PE per round.
  std::size_t keys_per_round = 4096;
  int rounds = 8;
  /// 0 = uniform keys; k > 0 maps u -> u^(k+1), concentrating keys onto low
  /// bins so the low-bin owner becomes the contended hot spot.
  int skew = 0;
  std::uint64_t seed = 42;
};

struct HistogramResult {
  cpufree::RunMetrics metrics;
  /// Global bins in bin order (functional runs only), gathered from the
  /// owners' slices.
  std::vector<double> bins;
  /// Partition-imbalance factor: max per-owner key updates / mean.
  double imbalance = 1.0;
};

/// Deterministic key stream: the bin of key `i` of PE `pe` in round `round`
/// (counter-based, so any PE can re-derive any other PE's stream).
[[nodiscard]] inline std::size_t histogram_key_bin(const HistogramConfig& cfg,
                                                   int pe, int round,
                                                   std::size_t i) {
  const double u = sim::stream_uniform(
      cfg.seed, static_cast<std::uint64_t>(pe),
      static_cast<std::uint64_t>(round), static_cast<std::uint64_t>(i));
  double v = u;
  for (int s = 0; s < cfg.skew; ++s) v *= u;  // u^(skew+1)
  const auto b =
      static_cast<std::size_t>(v * static_cast<double>(cfg.bins));
  return b < cfg.bins ? b : cfg.bins - 1;
}

/// The weight added to that bin (an independent stream).
[[nodiscard]] inline double histogram_key_weight(const HistogramConfig& cfg,
                                                 int pe, int round,
                                                 std::size_t i) {
  return sim::stream_uniform(cfg.seed + 1, static_cast<std::uint64_t>(pe),
                             static_cast<std::uint64_t>(round),
                             static_cast<std::uint64_t>(i));
}

/// Serial reference with the distributed merge's source-order reduction,
/// so `ranks`-PE runs match bitwise under every policy triple. Computed
/// once per process for each (bins, keys_per_round, rounds, skew, seed,
/// ranks); every call returns its own copy.
[[nodiscard]] std::vector<double> histogram_reference(
    const HistogramConfig& cfg, int ranks);

/// Partition-imbalance factor of the owner split under the key streams:
/// max per-owner updates / mean (1.0 = perfectly balanced).
[[nodiscard]] double histogram_imbalance(const HistogramConfig& cfg,
                                         int ranks);

/// Runs the histogram under any valid policy triple on a fresh machine.
[[nodiscard]] HistogramResult run_histogram(const vgpu::MachineSpec& spec,
                                            const HistogramConfig& cfg,
                                            const exec::Plan& plan);
/// The same run on `machine`, which nothing has run on yet; its trace
/// stays readable after the run.
[[nodiscard]] HistogramResult run_histogram(vgpu::Machine& machine,
                                            const HistogramConfig& cfg,
                                            const exec::Plan& plan);

/// CPU-Free histogram bound to an existing world whose engine is driven
/// EXTERNALLY — the building block the multi-tenant job server
/// schedules. The world may be a device slice. Results are bitwise
/// comparable to histogram_reference(config, world.n_pes()). A config whose
/// `functional` is not the World's is rejected (exec::check_mode) before
/// anything is allocated.
class HistogramCpufreeJob {
 public:
  HistogramCpufreeJob(vshmem::World& world, const HistogramConfig& config);
  ~HistogramCpufreeJob();
  HistogramCpufreeJob(const HistogramCpufreeJob&) = delete;
  HistogramCpufreeJob& operator=(const HistogramCpufreeJob&) = delete;

  /// Spawnable: completes when every PE's persistent kernel has drained.
  /// Call at most once.
  [[nodiscard]] sim::Task task();

  /// Global bins gathered from the owners (valid once task() completed).
  [[nodiscard]] std::vector<double> gather_bins() const;
  [[nodiscard]] double imbalance() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace workloads
