// Interval trace recorder and overlap analysis.
//
// Plays the role Nsight Systems plays in the paper: every simulated activity
// (kernel execution, communication, synchronization, host API call) records a
// half-open interval tagged with a category, device and lane (stream / thread
// block group). The analysis helpers compute the quantities reported in
// Figure 2.2: total communication time, total compute time, and the fraction
// of communication hidden under compute. Each category's union across
// devices is kept merged as intervals arrive, so those quantities need no
// pass over the run; the intervals themselves, and their names, are stored
// only for a consumer that asks (a Chrome trace, the summary, a per-device
// query).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
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
///
/// END ORDER: every recording site ends its interval at the engine's
/// current time, so each category's intervals arrive in nondecreasing end
/// order. `record` relies on it to keep each category's union across
/// devices merged as intervals arrive: a new [b, e) absorbs the trailing
/// spans that end at or after b, in amortized O(1) with no sort. An
/// interval that ends before the last one of its category throws
/// std::logic_error. The cross-device queries (device -2, the default)
/// read these unions.
///
/// INTERVALS ON REQUEST: only a trace that was asked to keep_intervals()
/// stores intervals and builds their names. intervals(), to_chrome_json(),
/// summary() and every per-device query (device >= -1) throw
/// std::logic_error on a trace that does not keep them, so a forgotten
/// opt-in fails instead of reporting zeros.
class Trace {
 public:
  /// Enables or disables recording. A disabled trace drops every interval
  /// before it touches a union or builds a name, which keeps timing-only
  /// benchmark sweeps and serve's fleets allocation-free.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Stores every interval recorded from now on, with its name. Call it
  /// before the run, so that the stored intervals are the whole run's.
  void keep_intervals() noexcept { keep_ = true; }

  /// Records [begin, end) (dropped when end <= begin). The interval's name
  /// is `name` followed by `suffix`, built only if the trace keeps
  /// intervals; an empty name stands for the category's.
  void record(Cat cat, std::int32_t device, std::int32_t lane, Nanos begin,
              Nanos end, std::string_view name = {},
              std::string_view suffix = {});

  /// Drops every interval and union and releases thread ownership; whether
  /// the trace is enabled and keeps intervals stays as it was.
  void clear();

  /// The stored intervals, in record order (throws unless the trace keeps
  /// intervals).
  [[nodiscard]] const std::vector<Interval>& intervals() const;

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

  /// Serializes the trace in Chrome `chrome://tracing` JSON array format so
  /// timelines analogous to the paper's Nsight figures can be inspected.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Human-readable per-device activity breakdown over [0, total]:
  /// compute/comm/sync/host busy time and percentages, one line per device
  /// plus the host row. The text form of the Nsight summary view.
  [[nodiscard]] std::string summary(Nanos total) const;

 private:
  /// The union of `cat` across all devices, merged as it was recorded.
  [[nodiscard]] const Spans& merged(Cat cat) const noexcept {
    return unions_[static_cast<std::size_t>(cat)];
  }
  /// Merged spans of the intervals in any of `cats` on `device` (-2: all).
  [[nodiscard]] Spans merged(std::initializer_list<Cat> cats,
                             std::int32_t device) const;

  std::array<Spans, kCatCount> unions_;
  std::vector<Interval> intervals_;
  /// Thread that first recorded; default-constructed id == unowned.
  std::thread::id owner_;
  bool enabled_ = true;
  bool keep_ = false;
};

}  // namespace sim
