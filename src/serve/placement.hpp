// Admission control + device placement for concurrent CPU-Free jobs.
//
// A persistent cooperative kernel needs ALL its blocks co-resident for the
// whole run (paper §4.1.4), so co-locating two tenants on one device is only
// sound when their joint residency fits under the hardware occupancy limit.
// The simulator itself does not arbitrate cross-kernel occupancy — this
// controller is that arbiter: it accounts each device's free capacity in
// resident-thread units (blocks x threads_per_block, against
// max_threads_per_sm x sm_count) and only admits a job when a full device
// slice fits. Placement prefers a contiguous device window (cheap links,
// node-local on multi-node machines) and falls back to scattered devices;
// the window choice is pluggable (first-fit / best-fit).
#pragma once

#include <optional>
#include <vector>

#include "serve/job.hpp"
#include "vgpu/costmodel.hpp"

namespace serve {

enum class PlacePolicy {
  kFirstFit,  // lowest-indexed contiguous window that fits
  kBestFit,   // contiguous window with the least leftover capacity
};

[[nodiscard]] const char* name(PlacePolicy p);

/// A carved device slice: physical devices (in PE order) plus the
/// co-resident block count charged on each of them.
struct Placement {
  std::vector<int> devices;
  int blocks_per_device = 0;
  /// Resident-thread charge per device (blocks x threads_per_block); kept
  /// here so release() returns exactly what try_place() took.
  long long threads_per_device = 0;
};

class AdmissionController {
 public:
  AdmissionController(const vgpu::MachineSpec& spec, PlacePolicy policy);

  /// Co-resident blocks the job would occupy per device (its requested
  /// count resolved against the cooperative cap); 0 if the request can
  /// never launch on this machine (bad threads_per_block).
  [[nodiscard]] int resolve_blocks(const JobSpec& spec) const;

  /// Could the job EVER be admitted on an idle machine? Rejects oversized
  /// device requests and unlaunchable block shapes at submit time.
  [[nodiscard]] bool feasible(const JobSpec& spec) const;

  /// Tries to place the job NOW: contiguous window per the policy first,
  /// scattered lowest-indexed devices as fallback. On success the slice's
  /// capacity is charged and the placement returned; nullopt = must queue.
  [[nodiscard]] std::optional<Placement> try_place(const JobSpec& spec);

  /// Returns a finished job's capacity.
  void release(const Placement& p);

  /// Fences a fail-stopped device off from ALL future placements (feasible,
  /// contiguous windows and the scattered fallback). Idempotent; capacity a
  /// dying job releases back to a dead device is simply never handed out
  /// again.
  void mark_device_dead(int device);
  [[nodiscard]] bool device_dead(int device) const;
  /// Devices still accepting placements.
  [[nodiscard]] int alive_devices() const;

  /// Free resident-thread capacity on `device` (tests / introspection).
  [[nodiscard]] long long free_threads(int device) const;

 private:
  vgpu::MachineSpec spec_;
  PlacePolicy policy_;
  long long capacity_ = 0;        // resident threads per device
  std::vector<long long> free_;   // per-device free resident threads
  std::vector<char> dead_;        // fail-stopped devices (never placed again)
};

}  // namespace serve
