// The prototype-then-validate autotuner (ROADMAP item 3).
//
// tune() walks the decision space (space.hpp), scores every candidate with
// the analytic rollout (rollout.hpp) — microseconds per candidate, no engine
// events — ranks deterministically by (predicted time, candidate id), then
// spends full simulated runs on the default recipe plus the top-K: each
// validation run executes the transformed SDFG on the persistent backend,
// verifies the gathered result bit-for-bit against the serial reference,
// and (optionally) runs under the race/deadlock detector. The report pairs
// every validated candidate's predicted time with its measured one, so the
// rollout's fidelity is itself an output.
//
// Determinism: candidate enumeration and ranking are pure arithmetic;
// validation runs go through sweep::Executor (submission-order results,
// bit-identical across worker counts). The whole report is reproducible
// across sweep worker counts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cpufree/metrics.hpp"
#include "sim/time.hpp"
#include "sweep/record.hpp"
#include "tune/space.hpp"
#include "vgpu/costmodel.hpp"

namespace tune {

struct TuneOptions {
  /// Candidates (beyond the default recipe) validated with full runs.
  int top_k = 3;
  /// Cap on the enumerated space (0 = full); forwarded to SpaceOptions.
  int max_candidates = 0;
  /// Run full simulations for the default + top-K (off = prediction only).
  bool validate = true;
  /// Attach the race/deadlock detector to every validation run.
  bool check = true;
  /// sweep::Executor workers for the validation batch (<= 0: all cores).
  int sweep_threads = 1;
  /// Live sweep progress on stderr.
  bool progress = false;
  /// Prefix for validation-run record ids (e.g. "jacobi2d/").
  std::string id_prefix;
  /// Sweep-axis params prepended to every validation record.
  std::vector<sweep::Param> base_params;
};

/// One scored (and possibly validated) candidate.
struct CandidateResult {
  Candidate candidate;
  sim::Nanos predicted = 0;
  /// A full simulated run was performed (default + top-K only).
  bool validated = false;
  /// Gathered result matched the serial reference bit-for-bit.
  bool verified = false;
  /// Detector verdict was clean (vacuously true when checking is off or the
  /// candidate was not validated — best() additionally requires validated).
  bool check_clean = true;
  sim::Nanos measured = 0;
  /// Resolved co-resident blocks the run used (validated runs only).
  int persistent_blocks = 0;
  /// '+'-joined put expansions the run generated (validated runs only).
  std::string put_expansion;
  cpufree::RunMetrics metrics;
};

struct TuneReport {
  Workload workload;
  std::size_t space_size = 0;
  /// The shipping configuration (Recipe::cpu_free_default, default
  /// partition), always validated when validation is on.
  CandidateResult baseline;
  /// Every enumerated candidate, sorted by (predicted, id); the first
  /// min(top_k, size) entries carry validation results.
  std::vector<CandidateResult> ranked;
  /// The validation runs (baseline first, then top-K in rank order) in
  /// cpufree-bench-v1 record form, ready for sweep::bench_json.
  std::vector<sweep::RunRecord> records;

  /// Fastest measured candidate that validated, verified, and came back
  /// clean — or nullptr when none did (or validation was off).
  [[nodiscard]] const CandidateResult* best() const;
};

/// Scores the whole space for `w` on `spec`, validates the default + top-K.
[[nodiscard]] TuneReport tune(const Workload& w, const vgpu::MachineSpec& spec,
                              const TuneOptions& opt = {});

}  // namespace tune
