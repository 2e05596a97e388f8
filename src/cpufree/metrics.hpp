// Run metrics: the quantities the paper's figures report.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fault/schedule.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace cpufree {

struct RunMetrics {
  sim::Nanos total = 0;           // end-to-end execution time
  sim::Nanos per_iteration = 0;   // total / iterations
  sim::Nanos comm = 0;            // union of communication intervals
  sim::Nanos compute = 0;         // union of computation intervals
  sim::Nanos sync = 0;            // union of synchronization intervals
  sim::Nanos host_api = 0;        // union of host API intervals
  sim::Nanos comm_hidden = 0;     // comm overlapped by compute
  double overlap_ratio = 0.0;     // comm_hidden / comm (Fig. 2.2b)
  double comm_fraction = 0.0;     // comm / total
  /// Fraction of the run NOT covered by computation — the paper's notion of
  /// "communication takes X% of the execution time" (host overheads, wire
  /// time and synchronization all count).
  double noncompute_fraction = 0.0;
  /// Fraction of all non-compute activity (comm + sync + host API) that is
  /// covered by concurrently running computation — the paper's
  /// "communication overlap ratio" (Fig. 2.2b): time that would not shrink
  /// the run if removed.
  double hidden_comm_ratio = 0.0;

  // Fault-plane counters (fault::Stats, copied per run). All zero — and
  // absent from the JSON — when the fault plane is inert.
  std::int64_t faults_injected = 0;  ///< fault events actually injected
  std::int64_t retries = 0;          ///< recovery re-pulls
  std::int64_t watchdog_fires = 0;   ///< timed waits that expired
  std::int64_t degraded_iters = 0;   ///< waits completed in degraded mode

  [[nodiscard]] double total_ms() const { return sim::to_msec(total); }
  [[nodiscard]] double per_iteration_us() const {
    return sim::to_usec(per_iteration);
  }
};

/// Derives metrics from a finished run's trace: one pass buckets the
/// intervals by category, and every union and overlap below comes from
/// those merged buckets.
[[nodiscard]] inline RunMetrics analyze_run(const sim::Trace& trace,
                                            sim::Nanos total,
                                            std::int64_t iterations) {
  const std::array<sim::Spans, sim::kCatCount> by_cat = trace.merged_by_cat();
  auto spans = [&by_cat](sim::Cat c) -> const sim::Spans& {
    return by_cat[static_cast<std::size_t>(c)];
  };
  RunMetrics m;
  m.total = total;
  m.per_iteration = iterations > 0 ? total / iterations : total;
  m.comm = sim::spans_length(spans(sim::Cat::kComm));
  m.compute = sim::spans_length(spans(sim::Cat::kCompute));
  m.sync = sim::spans_length(spans(sim::Cat::kSync));
  m.host_api = sim::spans_length(spans(sim::Cat::kHostApi));
  m.comm_hidden =
      sim::spans_overlap(spans(sim::Cat::kComm), spans(sim::Cat::kCompute));
  m.overlap_ratio = m.comm > 0 ? static_cast<double>(m.comm_hidden) /
                                     static_cast<double>(m.comm)
                               : 0.0;
  m.comm_fraction =
      total > 0 ? static_cast<double>(m.comm) / static_cast<double>(total) : 0.0;
  m.noncompute_fraction =
      total > 0
          ? 1.0 - static_cast<double>(m.compute) / static_cast<double>(total)
          : 0.0;
  // All non-compute activity: the union of three merged buckets.
  sim::Spans noncompute_spans;
  for (const sim::Cat c :
       {sim::Cat::kComm, sim::Cat::kSync, sim::Cat::kHostApi}) {
    noncompute_spans.insert(noncompute_spans.end(), spans(c).begin(),
                            spans(c).end());
  }
  sim::merge_spans(noncompute_spans);
  const sim::Nanos noncompute = sim::spans_length(noncompute_spans);
  if (noncompute > 0 && total > 0) {
    // Covered = compute + noncompute - total (both unions tile the run up to
    // idle gaps), clamped to [0, noncompute].
    sim::Nanos covered = m.compute + noncompute - total;
    if (covered < 0) covered = 0;
    if (covered > noncompute) covered = noncompute;
    m.hidden_comm_ratio =
        static_cast<double>(covered) / static_cast<double>(noncompute);
  }
  return m;
}

/// Copies a run's fault-plane counters into the metrics record.
inline void apply_fault_stats(RunMetrics& m, const fault::Stats& s) {
  m.faults_injected = s.injected;
  m.retries = s.retries;
  m.watchdog_fires = s.watchdog_fires;
  m.degraded_iters = s.degraded_iters;
}

/// Appends `m` as a compact JSON object. This is the `"metrics"` member of
/// the per-run records in `BENCH_*.json` files: durations as integer
/// nanoseconds (the simulator's exact representation, so records round-trip
/// bit-identically), ratios as doubles with full precision. The fault-plane
/// counters appear only when at least one is nonzero, so faultless records
/// stay byte-identical to builds that predate the fault plane.
inline void append_json(const RunMetrics& m, std::string& out) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"total_ns\":%lld,\"per_iteration_ns\":%lld,\"comm_ns\":%lld,"
      "\"compute_ns\":%lld,\"sync_ns\":%lld,\"host_api_ns\":%lld,"
      "\"comm_hidden_ns\":%lld,\"overlap_ratio\":%.17g,"
      "\"comm_fraction\":%.17g,\"noncompute_fraction\":%.17g,"
      "\"hidden_comm_ratio\":%.17g",
      static_cast<long long>(m.total), static_cast<long long>(m.per_iteration),
      static_cast<long long>(m.comm), static_cast<long long>(m.compute),
      static_cast<long long>(m.sync), static_cast<long long>(m.host_api),
      static_cast<long long>(m.comm_hidden), m.overlap_ratio, m.comm_fraction,
      m.noncompute_fraction, m.hidden_comm_ratio);
  out += buf;
  if (m.faults_injected != 0 || m.retries != 0 || m.watchdog_fires != 0 ||
      m.degraded_iters != 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"faults_injected\":%lld,\"retries\":%lld,"
                  "\"watchdog_fires\":%lld,\"degraded_iters\":%lld",
                  static_cast<long long>(m.faults_injected),
                  static_cast<long long>(m.retries),
                  static_cast<long long>(m.watchdog_fires),
                  static_cast<long long>(m.degraded_iters));
    out += buf;
  }
  out += '}';
}

[[nodiscard]] inline std::string to_json(const RunMetrics& m) {
  std::string out;
  append_json(m, out);
  return out;
}

}  // namespace cpufree
