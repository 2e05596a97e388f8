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
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/actor.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace sim {

class Observer;
class JobMap;
class Engine;
class Flag;
enum class Cmp : std::uint8_t;

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

/// Cancellation handle for Engine::schedule_callback. Cancelling keeps the
/// queue entry but marks it dead: when popped it is discarded WITHOUT
/// advancing simulated time, so a rescheduled timer leaves no trace on the
/// clock. The captured callback is released at cancel() time (not at pop
/// time), and the dead entry is accounted so the engine can compact bloated
/// queues and never blames a cancelled timer in a hang report.
/// Default-constructed tokens are inert. Cancel-after-fire is a no-op.
///
/// A token names a slot of its engine's timer table plus the slot's
/// generation: the sequence number of the event that armed it, unique for
/// the engine's lifetime. Firing or cancelling frees the slot, so an old
/// token (and its queue entry) never matches a reused slot. A token must
/// not be used after its engine is destroyed.
class TimerToken {
 public:
  TimerToken() = default;
  void cancel() const noexcept;  // defined after Engine (frees its slot)
  [[nodiscard]] bool armed() const noexcept;

 private:
  friend class Engine;
  friend class Flag;
  TimerToken(Engine* engine, std::uint32_t slot, std::uint64_t generation)
      : engine_(engine), generation_(generation), slot_(slot) {}
  Engine* engine_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t slot_ = 0;
};

/// One queued resumption or callback: plain values, no ownership.
///
/// Copies go member by member. The heap moves an event right after it was
/// stored field by field; GCC 12 copies a trivially copyable 32-byte struct
/// with two 16-byte loads, which cannot be forwarded from the pending 8-byte
/// stores, and that stall tripled the engine's cost per event.
struct Event {
  Nanos at = 0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle;  // null for callback events
  std::uint32_t timer = 0;         // timer slot of a callback event

  Event() = default;
  Event(Nanos t, std::uint64_t s, std::coroutine_handle<> h, std::uint32_t slot)
      : at(t), seq(s), handle(h), timer(slot) {}
  Event(const Event& o) : at(o.at), seq(o.seq), handle(o.handle), timer(o.timer) {}
  Event& operator=(const Event& o) {
    at = o.at;
    seq = o.seq;
    handle = o.handle;
    timer = o.timer;
    return *this;
  }
  ~Event() = default;

  friend bool operator>(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// Min-heap of events plus the table of armed timers. A plain vector heap
/// (not std::priority_queue) so cancelled timers can be dropped off the top
/// lazily and compacted in place when they accumulate — long fault soaks and
/// shared-link-heavy topo runs reschedule timers constantly. Timer closures
/// live in free-listed slots, so arming, firing and cancelling a timer
/// allocate nothing once the table has grown to the run's peak.
class EventQueue {
 public:
  void push_resume(Nanos at, std::uint64_t seq, std::coroutine_handle<> h) {
    push(Event{at, seq, h, 0});
  }

  /// Arms a timer at (at, seq) and returns its slot; `seq` becomes the
  /// slot's generation.
  std::uint32_t push_timer(Nanos at, std::uint64_t seq,
                           std::function<void()> fn) {
    std::uint32_t slot = free_timer_;
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(timers_.size());
      timers_.emplace_back();
    } else {
      free_timer_ = timers_[slot].next_free;
    }
    timers_[slot].fn = std::move(fn);
    timers_[slot].generation = seq;
    push(Event{at, seq, nullptr, slot});
    return slot;
  }

  [[nodiscard]] bool armed(std::uint32_t slot,
                           std::uint64_t generation) const noexcept {
    return timers_[slot].generation == generation;
  }

  /// Kills an armed timer and destroys its closure now; a no-op when the
  /// generation no longer matches (fired, or already cancelled).
  void cancel(std::uint32_t slot, std::uint64_t generation) noexcept {
    if (!armed(slot, generation)) return;
    timers_[slot].fn = nullptr;
    release(slot);
    ++dead_;
  }

  /// Frees the live timer of a popped event and hands over its closure.
  std::function<void()> fire(std::uint32_t slot) {
    std::function<void()> fn = std::move(timers_[slot].fn);
    timers_[slot].fn = nullptr;
    release(slot);
    return fn;
  }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Event ev = heap_.back();
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
      if (dead(heap_.front())) {
        (void)pop();
        --dead_;
        continue;
      }
      return &heap_.front();
    }
    return nullptr;
  }

  /// Removes all cancelled entries when they dominate the queue, so a run
  /// that parks many timers (ledger reschedules, watchdogs) keeps its queue
  /// proportional to live work. Heap order is rebuilt; (at, seq) pop order
  /// is unaffected.
  void compact_if_bloated() {
    if (dead_ < 64 || dead_ * 2 < heap_.size()) return;
    std::erase_if(heap_, [this](const Event& e) { return dead(e); });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    dead_ = 0;
  }

 private:
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct TimerSlot {
    std::function<void()> fn;
    std::uint64_t generation = kFree;  // seq of the arming event; kFree if unarmed
    std::uint32_t next_free = kNoSlot;  // free-list link while unarmed
  };

  void push(const Event& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool dead(const Event& e) const noexcept {
    return e.handle == nullptr && !armed(e.timer, e.seq);
  }

  void release(std::uint32_t slot) noexcept {
    timers_[slot].generation = kFree;
    timers_[slot].next_free = free_timer_;
    free_timer_ = slot;
  }

  std::vector<Event> heap_;
  /// Cancelled entries still in the heap.
  std::size_t dead_ = 0;
  std::vector<TimerSlot> timers_;
  std::uint32_t free_timer_ = kNoSlot;  // head of the unarmed slots
};

class Engine {
 public:
  Engine() noexcept { detail::block_pool.engine_opened(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  [[nodiscard]] Nanos now() const noexcept { return now_; }

  /// Schedules a raw coroutine resumption `delay` ns from now.
  void schedule(std::coroutine_handle<> h, Nanos delay = 0) {
    queue_.push_resume(now_ + delay, next_seq_++, h);
  }

  /// Schedules a plain callback `delay` ns from now and returns a token that
  /// can cancel it. Cancelled entries are dropped when popped without
  /// advancing the clock — the primitive behind re-schedulable timers (the
  /// link ledger moves its next-completion wake both earlier and later as
  /// transfers start and finish). Callbacks run at (time, seq) order like
  /// coroutine resumptions and may schedule further work, but must not call
  /// Engine::run().
  TimerToken schedule_callback(std::function<void()> fn, Nanos delay);

  /// Draws a sequence number without scheduling anything. Sequence numbers
  /// are unique and increase, so they also order arrivals at a Flag.
  [[nodiscard]] std::uint64_t sequence_number() noexcept { return next_seq_++; }

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
  // but is always on — no observer required. A site is plain data in a
  // reusable slot, so registering a wait allocates nothing; its text is
  // rendered only when a report is composed. Cancelled timers are drained
  // from the queues before the report is composed, so a dead callback is
  // never counted as pending work.

  /// One open blocking wait: `who` waits until `*flag <cmp> rhs`. `what`
  /// is a view, so the wait-site name must outlive the wait (the same
  /// contract as the trace interval a wait records when it ends).
  struct WaitSite {
    Actor who;              ///< waiting actor, e.g. pe1/k0.g2
    std::string_view what;  ///< wait-site name, e.g. "signal_wait"
    const Flag* flag = nullptr;
    Cmp cmp{};
    std::int64_t rhs = 0;
  };
  using WaitToken = std::uint32_t;

  [[nodiscard]] WaitToken note_wait_begin(const WaitSite& site);
  void note_wait_end(WaitToken token);

  /// Names a flag for hang reports, and for an attached observer
  /// (Observer::on_flag_name). The allocating layers name every flag they
  /// create, whether or not an observer is attached.
  void name_flag(const void* flag, std::string name);
  [[nodiscard]] std::string flag_name(const void* flag) const;

  /// The flag, barrier or device-memory block at `object` is being freed:
  /// drops its hang-report name and tells an attached observer
  /// (Observer::on_mem_release), so an object later allocated at the same
  /// address starts with no history.
  void forget(const void* object);

  /// Attaches the actor->job label map of an active multi-tenant serve run
  /// (nullptr detaches). Persistent launches bind their streams to their
  /// World's label in it, and hang reports then name the owning job of each
  /// stuck wait. Attribution only; never consulted for scheduling.
  void set_job_map(JobMap* jobs) noexcept { job_map_ = jobs; }
  [[nodiscard]] JobMap* job_map() const noexcept { return job_map_; }

  /// Multi-line description of every open registered wait, in
  /// registration order ("" when none).
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

  /// The incident log rendered for a hang report ("" when empty).
  [[nodiscard]] std::string describe_incidents() const;

 private:
  friend struct Task::FinalAwaiter;
  void on_root_done(Task::Handle h);

  EventQueue queue_;
  /// Live roots in spawn order (intrusive through their promises), so a
  /// finished root leaves in O(1) and teardown destroys in spawn order.
  Task::promise_type* first_root_ = nullptr;
  Task::promise_type* last_root_ = nullptr;
  std::vector<Task::Handle> finished_;
  std::exception_ptr error_;
  Trace trace_;
  Observer* observer_ = nullptr;
  JobMap* job_map_ = nullptr;
  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_roots_ = 0;

  /// An open-wait slot; `serial` orders registrations, 0 marks a free slot.
  struct OpenWait {
    WaitSite site;
    std::uint64_t serial = 0;
  };
  std::vector<OpenWait> waits_;
  std::vector<WaitToken> free_waits_;
  std::uint64_t next_wait_serial_ = 0;
  std::map<const void*, std::string> flag_names_;
  std::vector<std::string> incidents_;

  void reap_finished();
  friend class TimerToken;
};

inline void TimerToken::cancel() const noexcept {
  // Cancel after fire (or a second cancel) finds the generation moved on:
  // no-op. Cancel releases the captured closure right here — the queue
  // entry it leaves behind is an empty husk dropped on pop or compaction.
  if (engine_ != nullptr) engine_->queue_.cancel(slot_, generation_);
}

inline bool TimerToken::armed() const noexcept {
  return engine_ != nullptr && engine_->queue_.armed(slot_, generation_);
}

}  // namespace sim
