// Deterministic discrete-event engine.
//
// The engine owns a priority queue of (time, sequence) ordered resumptions.
// Sequence numbers break timestamp ties in FIFO order, so simulations are
// exactly reproducible run-to-run. All simulated concurrency (GPU streams,
// persistent kernels, host threads, MPI ranks) is expressed as coroutines
// resumed by this engine.
//
// An Engine is single-threaded: one queue, one clock. Parallelism lives one
// level up, where the sweep executor runs whole independent engines on
// separate workers.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace sim {

class Observer;
class JobMap;
class Engine;

/// Thrown by Engine::run() when the event queue drains while spawned root
/// tasks are still suspended (e.g. waiting on a flag nobody will ever set).
/// When the synchronization layers registered their open waits (see
/// Engine::note_wait_begin) the message names each stuck actor and wait
/// site; otherwise it is the bare task count.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::size_t stuck, const std::string& report = "")
      : std::runtime_error(
            report.empty()
                ? "simulation deadlock: " + std::to_string(stuck) +
                      " task(s) blocked with an empty event queue"
                : report),
        stuck_tasks(stuck) {}
  std::size_t stuck_tasks;
};

/// Shared state behind one scheduled callback. The queue entry and the
/// caller's TimerToken both point here; whichever of cancel and fire comes
/// first clears `alive` and releases the callback payload — a cancelled
/// timer drops its captured closure immediately instead of pinning it until
/// the entry is popped.
struct TimerState {
  bool alive = true;
  std::function<void()> fn;
  Engine* owner = nullptr;
};

/// Cancellation handle for Engine::schedule_callback. Cancelling keeps the
/// queue entry but marks it dead: when popped it is discarded WITHOUT
/// advancing simulated time, so a rescheduled timer leaves no trace on the
/// clock. The captured callback is released at cancel() time (not at pop
/// time), and the dead entry is accounted so the engine can compact bloated
/// queues and never blames a cancelled timer in a hang report.
/// Default-constructed tokens are inert. Cancel-after-fire is a no-op.
class TimerToken {
 public:
  TimerToken() = default;
  void cancel() noexcept;  // defined after Engine (notifies its queue)
  [[nodiscard]] bool armed() const noexcept {
    return state_ != nullptr && state_->alive;
  }

 private:
  friend class Engine;
  explicit TimerToken(std::shared_ptr<TimerState> s) : state_(std::move(s)) {}
  std::shared_ptr<TimerState> state_;
};

/// One queued resumption or callback.
struct Event {
  Nanos at = 0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle;    // null for callback events
  std::shared_ptr<TimerState> timer;  // null for resumptions
  friend bool operator>(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// Min-heap of events with dead-entry accounting. A plain vector heap (not
/// std::priority_queue) so cancelled timers can be dropped off the top
/// lazily and compacted in place when they accumulate — long fault soaks and
/// shared-link-heavy topo runs reschedule timers constantly.
class EventQueue {
 public:
  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  /// Drops cancelled entries off the top, then returns the earliest live
  /// event (nullptr when none remain). This is the "drain dead entries"
  /// step: emptiness checks and hang reports go through here, so a root
  /// blocked behind cancelled-but-unpopped callbacks is never miscounted as
  /// having pending work.
  const Event* peek_live() {
    while (!heap_.empty()) {
      const Event& top = heap_.front();
      if (top.timer != nullptr && !top.timer->alive) {
        (void)pop();
        --dead_;
        continue;
      }
      return &top;
    }
    return nullptr;
  }

  /// A timer living in this queue was cancelled (called from TimerToken).
  void note_cancel() noexcept { ++dead_; }

  [[nodiscard]] std::size_t dead_count() const noexcept { return dead_; }

  /// Removes all cancelled entries when they dominate the queue, so a run
  /// that parks many timers (ledger reschedules, watchdogs) keeps its queue
  /// proportional to live work. Heap order is rebuilt; (at, seq) pop order
  /// is unaffected.
  void compact_if_bloated() {
    if (dead_ < 64 || dead_ * 2 < heap_.size()) return;
    std::erase_if(heap_, [](const Event& e) {
      return e.timer != nullptr && !e.timer->alive;
    });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    dead_ = 0;
  }

 private:
  std::vector<Event> heap_;
  /// Cancelled entries still in the heap.
  std::size_t dead_ = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  [[nodiscard]] Nanos now() const noexcept { return now_; }

  /// Schedules a raw coroutine resumption `delay` ns from now.
  void schedule(std::coroutine_handle<> h, Nanos delay = 0) {
    queue_.push(Event{now_ + delay, next_seq_++, h, nullptr});
  }

  /// Schedules a plain callback `delay` ns from now and returns a token that
  /// can cancel it. Cancelled entries are dropped when popped without
  /// advancing the clock — the primitive behind re-schedulable timers (the
  /// link ledger moves its next-completion wake both earlier and later as
  /// transfers start and finish). Callbacks run at (time, seq) order like
  /// coroutine resumptions and may schedule further work, but must not call
  /// Engine::run().
  TimerToken schedule_callback(std::function<void()> fn, Nanos delay);

  /// Detaches `t` as a root process; it starts at the current simulated time
  /// (after already-queued events with the same timestamp).
  void spawn(Task t);

  /// Awaitable that suspends the caller for `d` simulated nanoseconds.
  struct DelayAwaiter {
    Engine& engine;
    Nanos duration;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine.schedule(h, duration); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(Nanos d) { return DelayAwaiter{*this, d}; }

  /// Reschedules the caller at the current time, behind pending same-time
  /// events. Useful to model "check again after everyone else acted".
  [[nodiscard]] DelayAwaiter yield() { return delay(0); }

  /// Runs until the event queue is empty. Rethrows the first exception that
  /// escaped a root task; throws DeadlockError if root tasks remain blocked.
  void run();

  /// Number of spawned root tasks that have not yet completed.
  [[nodiscard]] std::size_t live_tasks() const noexcept { return live_roots_; }

  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Attaches (or detaches, with nullptr) an execution observer. The
  /// observer receives the events published by the vgpu/vshmem/exec layers;
  /// it never affects simulated time.
  void set_observer(Observer* observer) noexcept { observer_ = observer; }
  [[nodiscard]] Observer* observer() const noexcept { return observer_; }

  // --- open-wait registry (hang attribution without a checker) -------------
  //
  // The synchronization layers (KernelCtx::spin_wait, World::quiet, ...)
  // register every blocking wait here and withdraw it on completion. If the
  // event queue then drains with live tasks, run() names each stuck actor
  // and wait site in the DeadlockError instead of exiting with open tasks
  // unreported. This mirrors check::DeadlockAnalyzer's attribution strings
  // but is always on — no observer required — and costs one map insert/erase
  // per wait. Cancelled timers are drained from the queues before the report
  // is composed, so a dead callback is never counted as pending work.

  /// One open blocking wait. `predicate` is the pre-rendered comparison
  /// (e.g. ">= 12"); `read_value` reads the awaited flag's current value at
  /// report time (may be empty).
  struct WaitSite {
    std::string who;   ///< waiting actor, e.g. "pe1/k0.g2"
    std::string what;  ///< wait-site name, e.g. "signal_wait"
    const void* flag = nullptr;
    std::string predicate;
    std::function<std::int64_t()> read_value;
    /// Waiting actor's (device, stream lane) for job attribution; -1/-1 when
    /// the waiter is not a stream/kernel actor (host threads, wires).
    std::int32_t actor_device = -1;
    std::int32_t actor_lane = -1;
  };
  using WaitToken = std::uint64_t;

  [[nodiscard]] WaitToken note_wait_begin(WaitSite site);
  void note_wait_end(WaitToken token);

  /// Names a flag for hang reports (the registry-side twin of
  /// Observer::on_flag_name; filled in unconditionally by the allocating
  /// layers).
  void name_flag(const void* flag, std::string name) {
    flag_names_[flag] = std::move(name);
  }
  [[nodiscard]] std::string flag_name(const void* flag) const;

  /// Attaches the actor->job label map of an active multi-tenant serve run
  /// (nullptr detaches). Hang reports then name the owning job of each stuck
  /// wait. Attribution only; never consulted for scheduling.
  void set_job_map(const JobMap* jobs) noexcept { job_map_ = jobs; }
  [[nodiscard]] const JobMap* job_map() const noexcept { return job_map_; }

  /// Multi-line description of every open registered wait ("" when none).
  [[nodiscard]] std::string describe_open_waits() const;

  /// Renders one wait site in the hang-report format.
  [[nodiscard]] std::string describe_wait_site(const WaitSite& site) const;

  // --- incident log (fail-stop attribution) --------------------------------
  //
  // Permanent events that change what the simulation can ever complete — a
  // device declared dead, a link severed, a tenant evicted — are recorded
  // here by the fault/serve layers. The log is appended to hang reports so
  // a DeadlockError caused by dead hardware names the hardware, not just
  // the starved waiters. Recording is attribution only: it never affects
  // scheduling, and an empty log leaves every report byte-identical.

  /// Appends one line to the incident log (chronological order — appends
  /// happen in deterministic event order).
  void note_incident(std::string line) {
    incidents_.push_back(std::move(line));
  }
  [[nodiscard]] const std::vector<std::string>& incidents() const noexcept {
    return incidents_;
  }

  /// The incident log rendered for a hang report ("" when empty).
  [[nodiscard]] std::string describe_incidents() const;

 private:
  friend struct Task::FinalAwaiter;
  void on_root_done(Task::Handle h);

  EventQueue queue_;
  std::vector<Task::Handle> roots_;
  std::vector<Task::Handle> finished_;
  std::exception_ptr error_;
  Trace trace_;
  Observer* observer_ = nullptr;
  const JobMap* job_map_ = nullptr;
  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_roots_ = 0;

  std::map<WaitToken, WaitSite> open_waits_;
  std::map<const void*, std::string> flag_names_;
  std::uint64_t next_wait_token_ = 0;
  std::vector<std::string> incidents_;

  void reap_finished();
  friend class TimerToken;
};

inline void TimerToken::cancel() noexcept {
  // Cancel after fire (or a second cancel) finds the timer dead: no-op.
  // Cancel releases the captured closure right here — the queue entry it
  // leaves behind is an empty husk dropped on pop or compaction.
  if (state_ == nullptr || !state_->alive) return;
  state_->alive = false;
  state_->fn = nullptr;
  if (state_->owner != nullptr) state_->owner->queue_.note_cancel();
}

}  // namespace sim
