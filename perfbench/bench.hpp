// Host-time benchmark of the simulator: shared types for the three
// workloads (workloads.cpp) and the command-line driver (main.cpp).
//
// Everything here measures the simulator from outside `src/`: host time is
// taken around calls into each layer's public functions (Tracer spans), and
// event counts come from a sim::Observer attached the same way the
// race/deadlock checker is (CountingObserver). Simulated results are folded
// into a digest so two builds can be compared byte for byte.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/observe.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up is microseconds of work, so one sample is mostly timer and cache
/// noise: each pass sets up this many times and reports the median.
constexpr int kSetupRepeats = 5;

/// Calls `make` kSetupRepeats times, stores the median duration in
/// `median_s` and returns the last result.
template <class Make>
auto timed_setup(Make&& make, double& median_s) {
  double t[kSetupRepeats] = {};
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto discarded = make();
    t[i] = seconds_since(t0);
  }
  const Clock::time_point t0 = Clock::now();
  auto out = make();
  t[kSetupRepeats - 1] = seconds_since(t0);
  std::sort(std::begin(t), std::end(t));
  median_s = t[kSetupRepeats / 2];
  return out;
}

/// Per-process knobs. `perturb`, `force_fail` and `force_hang` exist for
/// the self-test: the first shifts one simulated metric by 1 ns after the
/// run (the digest must change), the second makes one cell or job fail its
/// check (it must be counted and listed, and the digest must not change),
/// the third drops every signal with no retry, so signal-waiting runs hang
/// and their DeadlockError hang reports must be listed.
struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;
  bool perturb = false;
  bool force_fail = false;
  bool force_hang = false;
};

/// One attempted cell (a single simulated run) or serve job.
struct Outcome {
  std::string id;
  std::string kind;
  std::string slice;  ///< machine and devices it ran on
  bool ok = true;
  std::string reason;  ///< why it failed; empty when ok
};

/// FNV-1a over canonical text lines of simulated results. Wall-clock fields
/// and verification verdicts never enter it.
class Digest {
 public:
  void add(std::string_view line) {
    for (const char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  [[nodiscard]] std::string hex() const;

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Observer that only counts. Attached to every simulated machine of a
/// traced pass; the digest of that pass must equal the untraced one.
class CountingObserver final : public sim::Observer {
 public:
  struct Counts {
    std::int64_t kernel_groups = 0;
    std::int64_t stream_ops = 0;
    std::int64_t puts = 0;
    std::int64_t signal_updates = 0;
    std::int64_t signal_waits = 0;
    std::int64_t barrier_arrivals = 0;
    std::int64_t link_admissions = 0;
    /// Admissions onto a link another flight already occupied. Shared
    /// links (dgx_pcie) split bandwidth instead of queueing, so this, not
    /// queued time, is where their contention shows.
    std::int64_t contended_admissions = 0;
    std::int64_t accesses = 0;
    std::int64_t events = 0;  ///< every callback, of any kind

    Counts& operator+=(const Counts& o);
  };

  [[nodiscard]] const Counts& counts() const noexcept { return c_; }

  void on_mem_block(const void*, std::size_t, std::string_view) override {
    ++c_.events;
  }
  void on_flag_name(const void*, std::string_view) override { ++c_.events; }
  void on_actor_begin(const sim::Actor& actor, const sim::Actor&,
                      std::string_view) override {
    ++c_.events;
    if (actor.kind == sim::Actor::Kind::kKernelGroup) ++c_.kernel_groups;
  }
  void on_actor_end(const sim::Actor&, const sim::Actor&) override {
    ++c_.events;
  }
  void on_stream_enqueue(const sim::Actor&, const sim::Actor&,
                         std::int64_t) override {
    ++c_.events;
  }
  void on_stream_op_begin(const sim::Actor&, std::int64_t) override {
    ++c_.events;
    ++c_.stream_ops;
  }
  void on_stream_op_end(const sim::Actor&, std::int64_t) override {
    ++c_.events;
  }
  void on_stream_sync(const sim::Actor&, const sim::Actor&) override {
    ++c_.events;
  }
  void on_barrier_arrive(const sim::Actor&, const void*, std::size_t,
                         std::string_view) override {
    ++c_.events;
    ++c_.barrier_arrivals;
  }
  void on_barrier_resume(const sim::Actor&, const void*) override {
    ++c_.events;
  }
  void on_signal_update(const sim::Actor&, const void*, std::int64_t,
                        std::string_view) override {
    ++c_.events;
    ++c_.signal_updates;
  }
  void on_signal_wait_begin(const sim::Actor&, const void*, sim::Cmp,
                            std::int64_t, std::string_view) override {
    ++c_.events;
    ++c_.signal_waits;
  }
  void on_signal_wait_end(const sim::Actor&, const void*) override {
    ++c_.events;
  }
  void on_put_issue(std::uint64_t, const sim::Actor&, const sim::Actor&,
                    const sim::MemRange&, const sim::MemRange&, bool,
                    std::string_view) override {
    ++c_.events;
    ++c_.puts;
  }
  void on_put_deliver(std::uint64_t, const sim::Actor&) override {
    ++c_.events;
  }
  void on_quiet(const sim::Actor&, int, std::string_view) override {
    ++c_.events;
  }
  void on_link_busy(std::uint64_t, std::string_view, int concurrent,
                    sim::Nanos, std::string_view) override {
    ++c_.events;
    ++c_.link_admissions;
    if (concurrent > 1) ++c_.contended_admissions;
  }
  void on_link_release(std::uint64_t, std::string_view, int) override {
    ++c_.events;
  }
  void on_access(const sim::Actor&, const sim::MemRange&, bool,
                 std::string_view) override {
    ++c_.events;
    ++c_.accesses;
  }
  void on_fault(const sim::Actor&, std::string_view,
                std::string_view) override {
    ++c_.events;
  }
  void on_signal_wait_timeout(const sim::Actor&, const void*,
                              std::string_view) override {
    ++c_.events;
  }
  void on_deadlock(std::size_t) override { ++c_.events; }

 private:
  Counts c_;
};

/// In-memory span recorder. A span is one call into a layer, timed from
/// outside: name, start, end, parent span and the op id (cell or job
/// index) it belongs to. Thread-safe, so sweep workers can record their
/// cells; nesting follows each thread's open spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the tracer was created
    double end_us = 0.0;
    int parent = -1;  ///< index into spans(); -1 = root
    std::int64_t op = -1;
  };

  /// RAII span. A null tracer makes it a no-op, which is how the untraced
  /// passes run the same code.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::int64_t op = -1);
    /// Opens a span under an explicit parent (a cell started on a sweep
    /// worker whose thread has no open span).
    Scope(Tracer* t, std::string name, std::int64_t op, int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer* t_;
    int prev_;  ///< this thread's open span before this one
    int id_ = -1;
  };

  [[nodiscard]] std::vector<Span> spans() const;

  /// Total duration (ms) of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;

  /// Per-name self time (ms): each span's duration minus what its child
  /// spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// The spans plus the self-time summary as one JSON document.
  [[nodiscard]] std::string to_json() const;

 private:
  int open(std::string name, std::int64_t op, int parent);
  void close(int id);

  const Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Result of one untraced pass of a workload: the timed work plus what the
/// checks need.
struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<Outcome> outcomes;
  std::string digest;
};

/// Result of the traced run of a workload: per-layer metrics by name.
struct TraceResult {
  std::vector<std::pair<std::string, double>> metrics;
  /// Digest of the untraced pass and of the observer-attached traced pass;
  /// they must be equal.
  std::string digest_untraced;
  std::string digest_traced;
  std::vector<Outcome> outcomes;  ///< of the traced pass
};

/// The benchmark's workloads (see README.md for why each was chosen).
struct Workload {
  const char* name;
  PassResult (*pass)(const Options&);
  TraceResult (*trace)(const Options&, Tracer&);
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace perfbench
