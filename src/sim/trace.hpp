// Interval trace recorder and overlap analysis.
//
// Plays the role Nsight Systems plays in the paper: every simulated activity
// (kernel execution, communication, synchronization, host API call) records a
// closed interval tagged with a category, device and lane (stream / thread
// block group). The analysis helpers compute the quantities reported in
// Figure 2.2: total communication time, total compute time, and the fraction
// of communication hidden under compute.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace sim {

enum class Cat : std::uint8_t {
  kCompute,   // stencil / tasklet computation on a device
  kComm,      // inter-device data movement (memcpy, put, MPI payload)
  kSync,      // barriers, signal waits, stream/event synchronization
  kHostApi,   // host-side runtime API call overhead (launch, issue, sync call)
  kKernel,    // whole-kernel envelope intervals
  kOther,
};

/// Number of categories: Cat values index arrays of this size.
inline constexpr std::size_t kCatCount =
    static_cast<std::size_t>(Cat::kOther) + 1;

[[nodiscard]] const char* cat_name(Cat c) noexcept;

/// Half-open [begin, end) time spans.
using Spans = std::vector<std::pair<Nanos, Nanos>>;

/// Sorts `spans` and coalesces overlapping or touching ones in place, so the
/// result is sorted and disjoint ("merged").
void merge_spans(Spans& spans);
/// Total length of merged spans.
[[nodiscard]] Nanos spans_length(const Spans& merged);
/// Length of the intersection of two merged span lists.
[[nodiscard]] Nanos spans_overlap(const Spans& a, const Spans& b);

struct Interval {
  Cat cat = Cat::kOther;
  std::int32_t device = -1;  // -1 == host
  std::int32_t lane = 0;     // stream id / block-group id within the device
  Nanos begin = 0;
  Nanos end = 0;
  std::string name;
};

/// THREAD CONFINEMENT: a Trace (like the Engine that owns it) is
/// single-threaded state. It must be recorded into from exactly one thread;
/// the sweep executor runs one whole Machine/Engine/Trace per worker, never
/// sharing one across workers. `record` enforces this: it captures the
/// recording thread on first use and throws std::logic_error on a record
/// from any other thread. Read-only analysis from a different thread after
/// the owning thread finished (join/future provides the happens-before) is
/// fine. `clear()` releases ownership.
class Trace {
 public:
  /// Enables or disables recording. Disabled traces drop all intervals,
  /// which keeps timing-only benchmark sweeps allocation-free.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(Cat cat, std::int32_t device, std::int32_t lane, Nanos begin,
              Nanos end, std::string name = {});

  /// Appends intervals verbatim, in the caller's order (record's filters
  /// do not apply).
  void append(std::vector<Interval> more);

  void clear() {
    intervals_.clear();
    owner_ = std::thread::id{};
  }

  [[nodiscard]] const std::vector<Interval>& intervals() const noexcept {
    return intervals_;
  }

  /// Total length of the union of all intervals with category `cat`
  /// (optionally restricted to one device). Overlapping intervals are merged,
  /// so concurrent communication on two lanes is not double-counted.
  [[nodiscard]] Nanos union_length(Cat cat, std::int32_t device = -2) const;

  /// Union length across several categories merged together (e.g. all
  /// non-compute activity: comm + sync + host API).
  [[nodiscard]] Nanos union_length_any(std::initializer_list<Cat> cats,
                                       std::int32_t device = -2) const;

  /// Length of the intersection of the unions of categories `a` and `b`
  /// (optionally restricted to one device): e.g. how much communication time
  /// was covered by concurrently running computation.
  [[nodiscard]] Nanos overlap_length(Cat a, Cat b, std::int32_t device = -2) const;

  /// overlap_length(a, b) / union_length(a) in [0, 1]; returns 0 when no
  /// `a` intervals exist.
  [[nodiscard]] double overlap_ratio(Cat a, Cat b, std::int32_t device = -2) const;

  /// Merged spans of every category across all devices, indexed by Cat:
  /// one pass over the intervals and one sort per category, for callers
  /// that need several of the unions above.
  [[nodiscard]] std::array<Spans, kCatCount> merged_by_cat() const;

  /// Serializes the trace in Chrome `chrome://tracing` JSON array format so
  /// timelines analogous to the paper's Nsight figures can be inspected.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Human-readable per-device activity breakdown over [0, total]:
  /// compute/comm/sync/host busy time and percentages, one line per device
  /// plus the host row. The text form of the Nsight summary view.
  [[nodiscard]] std::string summary(Nanos total) const;

 private:
  /// Merged spans of the intervals in any of `cats` on `device` (-2: all).
  [[nodiscard]] Spans merged(std::initializer_list<Cat> cats,
                             std::int32_t device) const;

  std::vector<Interval> intervals_;
  /// Thread that first recorded; default-constructed id == unowned.
  std::thread::id owner_;
  bool enabled_ = true;
};

}  // namespace sim
