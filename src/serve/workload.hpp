// Job-kind adapters: one uniform spawnable interface over the three
// CPU-Free application families (stencil, CG, dacelite SDFG).
//
// A Workload owns everything one job touches — its vshmem::World device
// slice (label-prefixed allocations, per-tenant fault-injection gate), the
// problem state and the result cells — and exposes exactly what the server
// needs: a spawnable task() that completes when the job's persistent
// kernels drain, and an exact host-side verify() against the family's
// serial reference.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/placement.hpp"
#include "sim/task.hpp"
#include "vgpu/machine.hpp"

namespace serve {

/// Restart seed for a job recovered from a fail-stop: the newest complete
/// checkpoint, assembled into the workload's global state layout.
struct ResumeState {
  int iteration = 0;          ///< global iteration the state represents
  std::vector<double> state;  ///< assembled global state at `iteration`
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Spawnable; call at most once. Completes when every device of the
  /// job's slice has synced its persistent kernel.
  [[nodiscard]] virtual sim::Task task() = 0;

  /// Exact verification against the family's serial reference (bitwise /
  /// zero-error); only meaningful after task() completed.
  [[nodiscard]] virtual bool verify() = 0;

  /// One-line result summary for the job record.
  [[nodiscard]] virtual std::string detail() const = 0;

  /// World::drained() of the job's slice: once true, nothing in flight
  /// touches the workload and it may be destroyed.
  [[nodiscard]] virtual bool drained() const = 0;

  /// Did the run abort under the hard-fault plane (a slice device or link
  /// declared dead)? Only meaningful after task() completed — an aborted
  /// persistent run still completes, because dead/aborted groups skip-join
  /// through the remaining iterations instead of stranding barriers.
  [[nodiscard]] virtual bool aborted() const { return false; }
  [[nodiscard]] virtual std::string abort_reason() const { return {}; }

  /// Can an aborted run of this workload be restarted from a checkpoint?
  [[nodiscard]] virtual bool restartable() const { return false; }
  /// Newest complete checkpoint iteration (global numbering; 0 = the run
  /// must restart from scratch).
  [[nodiscard]] virtual int resume_iteration() const { return 0; }
  /// Assembled global state at resume_iteration() (empty when 0).
  [[nodiscard]] virtual std::vector<double> resume_state() const {
    return {};
  }
};

/// Shape errors that would throw mid-run (stencil needs two slabs per
/// device, a dacelite domain must divide by its process grid, ...);
/// empty string = submittable.
[[nodiscard]] std::string validate(const JobSpec& spec);

/// Does a run of `spec` take the same simulated time without its numerics?
/// True for stencil, dacelite and histogram jobs, whose costs read no data,
/// but not for checkpointing stencils, whose snapshots copy the domain. CG
/// and sparse CG stop when they converge on their data, so they qualify
/// only when their memoized serial reference ran every iteration without
/// reaching tolerance; that computes the reference if no verify() has.
[[nodiscard]] bool timing_is_data_independent(const JobSpec& spec);

/// Builds the adapter for `spec` on the carved `place`. The world slice is
/// labeled `label`; when the machine's engine carries a job map, the launch
/// binds every stream it creates to that label for checker/hang
/// attribution. A non-null
/// `resume` with iteration > 0 restarts a checkpoint-capable workload from
/// that state, running only the remaining iterations (kinds without restart
/// support ignore it). `functional` = false builds a timing-only run of a
/// kind whose timing is data-independent: it skips the numerics and
/// allocates no full-size domain, and verify() must not be called.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    vgpu::Machine& machine, const JobSpec& spec, const Placement& place,
    const std::string& label, const ResumeState* resume = nullptr,
    bool functional = true);

}  // namespace serve
