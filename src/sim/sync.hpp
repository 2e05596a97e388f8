// Synchronization primitives for simulated processes.
//
// Flag is the workhorse: NVSHMEM signal variables, CUDA event state, stream
// progress counters, and in-kernel spin flags are all Flags. A Flag holds a
// 64-bit value; waiters park with a comparison predicate and are resumed at
// the simulated instant a mutation satisfies it, which models a device-side
// busy-wait that notices the store immediately (poll granularity can be added
// by the caller via Engine::delay).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sim {

/// Comparison operators mirroring NVSHMEM_CMP_*.
enum class Cmp : std::uint8_t { kEq, kNe, kGt, kGe, kLt, kLe };

[[nodiscard]] constexpr bool compare(Cmp cmp, std::int64_t lhs, std::int64_t rhs) {
  switch (cmp) {
    case Cmp::kEq: return lhs == rhs;
    case Cmp::kNe: return lhs != rhs;
    case Cmp::kGt: return lhs > rhs;
    case Cmp::kGe: return lhs >= rhs;
    case Cmp::kLt: return lhs < rhs;
    case Cmp::kLe: return lhs <= rhs;
  }
  return false;
}

/// Operator token for reports ("==", ">=", ...).
[[nodiscard]] constexpr const char* cmp_str(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq: return "==";
    case Cmp::kNe: return "!=";
    case Cmp::kGt: return ">";
    case Cmp::kGe: return ">=";
    case Cmp::kLt: return "<";
    case Cmp::kLe: return "<=";
  }
  return "?";
}

namespace detail {

/// Growable array of a trivially destructible T whose storage comes from
/// the thread's BlockPool (sim/task.hpp): once the pool is warm, a fresh
/// Flag's first waiter allocates nothing, and an idle Flag costs two words.
/// Not copyable or movable.
template <typename T>
class PooledVec {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  PooledVec() = default;
  PooledVec(const PooledVec&) = delete;
  PooledVec& operator=(const PooledVec&) = delete;
  ~PooledVec() {
    if (data_ != nullptr) block_pool.deallocate(data_, cap_ * sizeof(T));
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push_back(const T& v) {
    if (size_ == cap_) {
      const std::uint32_t cap = cap_ == 0 ? 1 : 2 * cap_;
      T* const grown = static_cast<T*>(block_pool.allocate(cap * sizeof(T)));
      std::uninitialized_copy(begin(), end(), grown);
      if (data_ != nullptr) block_pool.deallocate(data_, cap_ * sizeof(T));
      data_ = grown;
      cap_ = cap;
    }
    ::new (data_ + size_++) T(v);
  }
  void truncate(std::size_t n) noexcept { size_ = static_cast<std::uint32_t>(n); }

 private:
  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace detail

class Flag {
 public:
  explicit Flag(Engine& engine, std::int64_t initial = 0)
      : engine_(&engine), value_(initial) {}
  Flag(const Flag&) = delete;
  Flag& operator=(const Flag&) = delete;

  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  [[nodiscard]] Engine& engine() const noexcept { return *engine_; }

  void set(std::int64_t v) {
    value_ = v;
    if (!thresholds_.empty() || !others_.empty()) wake_satisfied();
  }
  void add(std::int64_t d) { set(value_ + d); }

  struct WaitAwaiter {
    Flag& flag;
    Cmp cmp;
    std::int64_t rhs;
    bool await_ready() const noexcept { return compare(cmp, flag.value_, rhs); }
    void await_suspend(std::coroutine_handle<> h) {
      flag.park(cmp, rhs, h, TimerToken{});
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until `value() <cmp> rhs` holds (returns immediately if it
  /// already does).
  [[nodiscard]] WaitAwaiter wait(Cmp cmp, std::int64_t rhs) {
    return WaitAwaiter{*this, cmp, rhs};
  }
  [[nodiscard]] WaitAwaiter wait_geq(std::int64_t rhs) { return wait(Cmp::kGe, rhs); }

  /// Watchdog-guarded wait: resumes when the predicate holds OR after
  /// `timeout` simulated ns, whichever comes first. `co_await` yields true
  /// on satisfaction and false on timeout (the waiter is withdrawn, so a
  /// later mutation will not resume it twice). The wake cancels the timer;
  /// a cancelled entry is dropped without advancing the clock, so an
  /// untriggered watchdog leaves no trace on simulated time.
  struct TimedAwaiter {
    Flag& flag;
    Cmp cmp;
    std::int64_t rhs;
    Nanos timeout;
    bool timed_out = false;

    bool await_ready() const noexcept { return compare(cmp, flag.value_, rhs); }
    void await_suspend(std::coroutine_handle<> h) {
      const TimerToken timer = flag.engine_->schedule_callback(
          [this, h] {
            // Fires only while still parked: a wake cancels the timer first.
            flag.withdraw();
            timed_out = true;
            flag.engine_->schedule(h, 0);
          },
          timeout);
      flag.park(cmp, rhs, h, timer);
    }
    bool await_resume() const noexcept { return !timed_out; }
  };

  /// `co_await flag.wait_for(...)` -> true if satisfied, false on timeout.
  [[nodiscard]] TimedAwaiter wait_for(Cmp cmp, std::int64_t rhs,
                                      Nanos timeout) {
    return TimedAwaiter{*this, cmp, rhs, timeout};
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return thresholds_.size() + others_.size() - withdrawn_;
  }

 private:
  // Waiters are indexed by predicate. `>=` and `>` waiters sit in a
  // min-heap keyed by (threshold, arrival id), so a mutation finds every
  // satisfied one in O(log n) each whatever the queue depth; the other
  // predicates sit in an arrival-ordered list that each mutation scans.
  // A mutation resumes the satisfied waiters of both in arrival order —
  // the order of one scan over all waiters in arrival order.
  //
  // A waiter's arrival id is an engine sequence number; a timed waiter
  // takes its watchdog's, which is also the watchdog slot's generation. A
  // timed waiter whose watchdog fired stays behind as a tombstone (the
  // slot no longer carries its generation) until a mutation or a purge
  // drops it; `withdrawn_` counts tombstones so waiter_count() stays exact.
  static constexpr std::uint32_t kNoWatchdog = ~std::uint32_t{0};

  /// Copied member by member, for the reason given at sim::Event.
  struct Waiter {
    std::int64_t key = 0;  // threshold (heap) or right-hand side (list)
    std::uint64_t id = 0;  // arrival order
    std::coroutine_handle<> handle;
    std::uint32_t watchdog = kNoWatchdog;  // timer slot of a timed wait
    Cmp cmp = Cmp::kGe;

    Waiter(std::int64_t k, std::uint64_t i, std::coroutine_handle<> h,
           std::uint32_t w, Cmp c)
        : key(k), id(i), handle(h), watchdog(w), cmp(c) {}
    Waiter(const Waiter& o)
        : key(o.key), id(o.id), handle(o.handle), watchdog(o.watchdog),
          cmp(o.cmp) {}
    Waiter& operator=(const Waiter& o) {
      key = o.key;
      id = o.id;
      handle = o.handle;
      watchdog = o.watchdog;
      cmp = o.cmp;
      return *this;
    }
    ~Waiter() = default;
  };

  /// The watchdog of a timed waiter (its slot carries the waiter's id).
  [[nodiscard]] TimerToken watchdog_of(const Waiter& w) const noexcept {
    return TimerToken{engine_, w.watchdog, w.id};
  }
  /// A timed waiter whose watchdog already fired.
  [[nodiscard]] bool withdrawn(const Waiter& w) const noexcept {
    return w.watchdog != kNoWatchdog && !watchdog_of(w).armed();
  }

  static constexpr auto later = [](const Waiter& a, const Waiter& b) {
    return a.key != b.key ? a.key > b.key : a.id > b.id;
  };
  static constexpr auto arrived_first = [](const Waiter& a, const Waiter& b) {
    return a.id < b.id;
  };

  /// Parks `h` until `value() <cmp> rhs`; `watchdog` is the timed wait's
  /// just-armed timer, or inert.
  void park(Cmp cmp, std::int64_t rhs, std::coroutine_handle<> h,
            const TimerToken& watchdog) {
    const bool timed = watchdog.engine_ != nullptr;
    Waiter w{rhs, timed ? watchdog.generation_ : engine_->sequence_number(), h,
             timed ? watchdog.slot_ : kNoWatchdog, cmp};
    if (cmp == Cmp::kGe ||
        (cmp == Cmp::kGt && rhs != std::numeric_limits<std::int64_t>::max())) {
      if (cmp == Cmp::kGt) ++w.key;
      thresholds_.push_back(w);
      std::push_heap(thresholds_.begin(), thresholds_.end(), later);
    } else {
      others_.push_back(w);
    }
  }

  /// A timed waiter's watchdog fired: its entry becomes a tombstone. When
  /// tombstones dominate, they are purged so a flag whose watchdogs keep
  /// expiring stays proportional to its live waiters.
  void withdraw() {
    ++withdrawn_;
    if (withdrawn_ < 64 || withdrawn_ * 2 < thresholds_.size() + others_.size()) {
      return;
    }
    const auto spent = [this](const Waiter& w) { return withdrawn(w); };
    for (detail::PooledVec<Waiter>* v : {&thresholds_, &others_}) {
      v->truncate(static_cast<std::size_t>(
          std::remove_if(v->begin(), v->end(), spent) - v->begin()));
    }
    std::make_heap(thresholds_.begin(), thresholds_.end(), later);
    withdrawn_ = 0;
  }

  /// Resumes one satisfied waiter at the current time, behind
  /// already-queued same-time events (a tombstone is just dropped).
  void resume(const Waiter& w) {
    if (w.watchdog != kNoWatchdog) {
      if (withdrawn(w)) {
        --withdrawn_;
        return;
      }
      watchdog_of(w).cancel();
    }
    engine_->schedule(w.handle, 0);
  }

  void wake_satisfied() {
    // Pop satisfied thresholds to the heap's tail, then order them by
    // arrival and merge them with the list's satisfied waiters.
    std::size_t live = thresholds_.size();
    while (live > 0 && thresholds_[0].key <= value_) {
      std::pop_heap(thresholds_.begin(), thresholds_.begin() + live, later);
      --live;
    }
    Waiter* const ready = thresholds_.begin() + live;
    Waiter* const ready_end = thresholds_.end();
    if (ready_end - ready > 1) std::sort(ready, ready_end, arrived_first);
    Waiter* next = ready;
    std::size_t kept = 0;
    for (const Waiter& w : others_) {
      if (withdrawn(w)) {
        --withdrawn_;
        continue;
      }
      if (!compare(w.cmp, value_, w.key)) {
        others_[kept++] = w;
        continue;
      }
      while (next != ready_end && next->id < w.id) resume(*next++);
      resume(w);
    }
    others_.truncate(kept);
    while (next != ready_end) resume(*next++);
    thresholds_.truncate(live);
  }

  Engine* engine_;
  std::int64_t value_;
  detail::PooledVec<Waiter> thresholds_;
  detail::PooledVec<Waiter> others_;
  std::size_t withdrawn_ = 0;
};

/// Cyclic barrier for a fixed set of participants (used for device-side
/// grid.sync() and host-side OpenMP/MPI-style barriers).
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t parties)
      : engine_(&engine), parties_(parties) {}

  struct Awaiter {
    Barrier& barrier;
    bool await_ready() const noexcept { return barrier.parties_ <= 1; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (barrier.arrived_ + 1 == barrier.parties_) {
        // Last arriver releases everyone and continues without suspending.
        barrier.arrived_ = 0;
        for (auto w : barrier.waiting_) barrier.engine_->schedule(w, 0);
        barrier.waiting_.clear();
        ++barrier.generation_;
        return false;
      }
      ++barrier.arrived_;
      barrier.waiting_.push_back(h);
      return true;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter arrive_and_wait() { return Awaiter{*this}; }
  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

 private:
  friend struct Awaiter;

  Engine* engine_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiting_;
};

}  // namespace sim
