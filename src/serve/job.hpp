// Multi-tenant job model for the admission-controlled CPU-Free server.
//
// A JobSpec names one CPU-Free application instance (stencil, CG, a
// dacelite SDFG, a generalized histogram or a sparse SpMV-CG solve) a
// tenant submits: a requested device-slice width, a
// problem size and the launch knobs. The server turns each spec into a
// JobOutcome (when it arrived / was admitted / finished and whether it
// verified) and, with isolated baselines, a JobRecord carrying the
// slowdown-vs-alone and SLO verdict the evaluation plots.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace serve {

/// The CPU-Free application families a tenant can submit: the regular slab
/// workloads (stencil, CG, dacelite SDFG) plus the irregular ones
/// (generalized histogram, sparse SpMV-CG). All run functionally and are
/// verified exactly against their serial references.
enum class JobKind { kStencil, kCg, kDacelite, kHistogram, kSparseCg };

[[nodiscard]] constexpr const char* name(JobKind k) {
  switch (k) {
    case JobKind::kStencil: return "stencil";
    case JobKind::kCg: return "cg";
    case JobKind::kDacelite: return "dacelite";
    case JobKind::kHistogram: return "histogram";
    case JobKind::kSparseCg: return "sparse_cg";
  }
  return "?";
}

struct JobSpec {
  int id = 0;
  std::string tenant;  // owning tenant, e.g. "t3"
  JobKind kind = JobKind::kStencil;
  /// Devices the job's slice must span (contiguity preferred, not required).
  int devices = 1;
  int iterations = 10;
  /// Problem size. stencil: nx x ny Jacobi2D; cg: nx x ny Laplacian;
  /// dacelite: nx x nx Jacobi2D SDFG (must divide by the process grid);
  /// histogram: nx bins, ny keys per PE per round; sparse_cg: nx x ny.
  std::size_t nx = 64;
  std::size_t ny = 64;
  /// Histogram key skew (0 = uniform; k > 0 concentrates keys onto low
  /// bins, making the low-bin owner the contended hot spot).
  int skew = 0;
  /// Sparse CG row-partition imbalance: target row-count ratio between the
  /// heaviest rank and the lightest (1.0 = even split).
  double imbalance = 1.0;
  int threads_per_block = 1024;
  /// Requested co-resident blocks per device; 0 derives one block per SM,
  /// clamped to the cooperative occupancy cap (resolve_persistent_blocks).
  int persistent_blocks = 0;
  /// SLO: the job must finish within slo_factor x its isolated runtime of
  /// its ARRIVAL (so queue wait counts against the deadline).
  double slo_factor = 4.0;
  /// Faulty tenant: this job's world keeps put/signal-class fault injection
  /// enabled while every clean tenant's world has it gated off.
  bool faulty = false;
  /// Checkpoint interval under the hard-fault plane (stencil jobs only):
  /// snapshot the job's state every N iterations so a device death can be
  /// recovered by restarting from the last complete snapshot. 0 = no
  /// checkpointing — an aborted job is lost.
  int checkpoint_every = 0;
};

struct JobOutcome {
  sim::Nanos arrival = 0;
  sim::Nanos admit = 0;
  sim::Nanos end = 0;
  bool admitted = false;
  bool completed = false;
  bool verified = false;
  /// Resolved co-resident blocks the admission controller charged per device.
  int blocks_per_device = 0;
  /// First physical device of the placement (slice anchor), -1 if never placed.
  int first_device = -1;
  /// Workload-specific one-liner ("32 iters, rr 1.2e-11") or reject reason.
  std::string detail;

  // --- Failover bookkeeping (hard-fault runs) ------------------------------
  /// Admission attempts that actually started running (1 = no failover).
  int attempts = 1;
  /// Aborted with no recovery path (no checkpointing, or no feasible
  /// placement on the surviving devices).
  bool lost = false;
  /// Checkpoint iteration the last restart resumed from (-1 = never
  /// restarted; 0 = restarted from scratch).
  int restarted_from = -1;
  sim::Nanos aborted_at = 0;  ///< when the first abort was observed
  sim::Nanos resumed_at = 0;  ///< when the recovery attempt started running
  /// Completed iterations the failure destroyed (kill point back to the
  /// restored checkpoint).
  long long lost_iterations = 0;
  /// Iterations the recovery attempt re-executed (checkpoint to the end).
  long long replayed_iterations = 0;

  [[nodiscard]] sim::Nanos queue_wait() const { return admit - arrival; }
  [[nodiscard]] sim::Nanos makespan() const { return end - admit; }
  /// Abort-to-restart latency of the recovery (0 without a failover).
  [[nodiscard]] sim::Nanos recovery_latency() const {
    return resumed_at > aborted_at ? resumed_at - aborted_at : 0;
  }
};

/// One job's full story, including the isolated-run comparison.
struct JobRecord {
  JobSpec spec;
  JobOutcome out;
  /// Runtime of the identical job alone on an otherwise idle, fault-free
  /// machine of the same model (0 when baselines were not computed).
  double isolated_us = 0.0;
  /// makespan / isolated (1.0 = no interference; 0 without baselines).
  double slowdown = 0.0;
  bool slo_met = false;
};

struct FleetMetrics {
  int jobs = 0;
  int completed = 0;
  int verified = 0;
  int slo_met = 0;
  int rejected = 0;  // infeasible at submit (never admitted)
  double mean_queue_wait_us = 0.0;
  double mean_slowdown = 0.0;
  double max_slowdown = 0.0;
  /// Jain's index over per-job slowdowns: 1 = perfectly fair contention.
  double jain_fairness = 1.0;
  /// Simulated time from first arrival to the last job's completion.
  double fleet_makespan_us = 0.0;

  // --- Failure / recovery (hard-fault runs) --------------------------------
  int failovers = 0;  ///< aborted jobs successfully re-admitted
  int jobs_lost = 0;  ///< aborted jobs with no recovery path
  /// Jobs whose placement raced a device death between window selection and
  /// launch and were re-queued instead of started.
  int requeues = 0;
  /// Mean abort-to-restart latency over the recovered jobs.
  double mean_recovery_latency_us = 0.0;
  long long lost_iterations = 0;
  long long replayed_iterations = 0;
  /// Useful iterations / executed iterations (useful + replayed + lost);
  /// 1.0 on a failure-free run.
  double goodput = 1.0;
};

struct ServeReport {
  std::vector<JobRecord> jobs;  // submission order
  FleetMetrics fleet;
  /// The shared machine's attributed hang report when the run ended in a
  /// deadlock (stuck waits with job labels, plus the engine incident log
  /// naming dead hardware and evicted tenants). Empty on a clean drain.
  std::string hang_report;
  /// Host-side memory accounting of the shared machine, not part of any
  /// BENCH record: the most device bytes ever live at once, and the bytes
  /// still live once every drained job was retired (0 after a clean drain).
  std::size_t peak_device_bytes = 0;
  std::size_t live_device_bytes = 0;
  /// Streams and job-map lanes the shared machine still holds at the end,
  /// like live_device_bytes (0 after a clean drain). Host-side only.
  std::size_t live_streams = 0;
  std::size_t live_job_lanes = 0;
  /// Isolated-baseline simulations run: one per distinct baseline key
  /// (shape, blocks per device, slice class), not per job. Host-side only.
  int isolated_runs = 0;
};

}  // namespace serve
