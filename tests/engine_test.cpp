// Engine hot-path structures (DESIGN.md §6, "engine memory model"):
//
//   * Flag wake order: the indexed waiter store (threshold heap plus
//     arrival-ordered list) resumes exactly what a linear scan over all
//     waiters in arrival order resumes, at the same times, for generated
//     park/set/add sequences over every Cmp, timed waits and values that
//     rise and fall;
//   * depth: a stream's per-op host cost does not grow with queue depth;
//   * pooled frames: a destroyed frame sitting in the per-thread pool is
//     still reported by ASan, and a Task outliving its thread's last Engine
//     is released cleanly (LSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/stream.hpp"

namespace {

using sim::Cmp;

/// The waiter store every Flag had before it was indexed: one vector in
/// arrival order, scanned and erased on each mutation; a timed wait is
/// withdrawn by a linear search when its watchdog fires.
class RefFlag {
 public:
  RefFlag(sim::Engine& engine, std::int64_t initial)
      : engine_(&engine), value_(initial) {}

  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

  void set(std::int64_t v) {
    value_ = v;
    for (std::size_t i = 0; i < waiters_.size();) {
      if (sim::compare(waiters_[i].cmp, value_, waiters_[i].rhs)) {
        engine_->schedule(waiters_[i].handle, 0);
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  void add(std::int64_t d) { set(value_ + d); }

  struct WaitAwaiter {
    RefFlag& flag;
    Cmp cmp;
    std::int64_t rhs;
    bool await_ready() const noexcept {
      return sim::compare(cmp, flag.value_, rhs);
    }
    void await_suspend(std::coroutine_handle<> h) {
      (void)flag.park(cmp, rhs, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] WaitAwaiter wait(Cmp cmp, std::int64_t rhs) {
    return WaitAwaiter{*this, cmp, rhs};
  }

  struct TimedAwaiter {
    RefFlag& flag;
    Cmp cmp;
    std::int64_t rhs;
    sim::Nanos timeout;
    std::uint64_t id = 0;
    bool timed_out = false;
    sim::TimerToken timer{};

    bool await_ready() const noexcept {
      return sim::compare(cmp, flag.value_, rhs);
    }
    void await_suspend(std::coroutine_handle<> h) {
      id = flag.park(cmp, rhs, h);
      timer = flag.engine_->schedule_callback(
          [this, h] {
            if (flag.remove_waiter(id)) {
              timed_out = true;
              flag.engine_->schedule(h, 0);
            }
          },
          timeout);
    }
    bool await_resume() noexcept {
      if (!timed_out) timer.cancel();
      return !timed_out;
    }
  };
  [[nodiscard]] TimedAwaiter wait_for(Cmp cmp, std::int64_t rhs,
                                      sim::Nanos timeout) {
    return TimedAwaiter{*this, cmp, rhs, timeout};
  }

 private:
  struct Waiter {
    Cmp cmp;
    std::int64_t rhs;
    std::coroutine_handle<> handle;
    std::uint64_t id;
  };

  std::uint64_t park(Cmp cmp, std::int64_t rhs, std::coroutine_handle<> h) {
    waiters_.push_back(Waiter{cmp, rhs, h, ++next_id_});
    return next_id_;
  }
  bool remove_waiter(std::uint64_t id) {
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].id == id) {
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  sim::Engine* engine_;
  std::int64_t value_;
  std::vector<Waiter> waiters_;
  std::uint64_t next_id_ = 0;
};

/// Draw `i` of kind `what` in scenario `seed`, uniform in [0, n).
std::int64_t draw(std::uint64_t seed, std::uint64_t what, std::uint64_t i,
                  std::uint64_t n) {
  return static_cast<std::int64_t>(sim::stream_mix(seed, what, i, 0) % n);
}

constexpr std::uint64_t kParkers = 24;
constexpr std::uint64_t kMutations = 40;

/// One parker: after a start delay it waits twice, each time with a drawn
/// predicate, a value in [-3, 12] and (one in three) a watchdog.
template <typename F>
sim::Task parker(sim::Engine& eng, F& flag, std::uint64_t seed, std::uint64_t i,
                 std::vector<std::string>& log) {
  co_await eng.delay(draw(seed, 1, i, 200));
  for (std::uint64_t round = 0; round < 2; ++round) {
    const std::uint64_t k = 2 * i + round;
    const auto cmp = static_cast<Cmp>(draw(seed, 2, k, 6));
    const std::int64_t rhs = draw(seed, 3, k, 16) - 3;
    bool ok = true;
    if (draw(seed, 4, k, 3) == 0) {
      ok = co_await flag.wait_for(cmp, rhs, 1 + draw(seed, 5, k, 300));
    } else {
      co_await flag.wait(cmp, rhs);
    }
    log.push_back(std::to_string(eng.now()) + " w" + std::to_string(k) +
                  (ok ? " woke" : " timed out"));
  }
}

/// The mutator: sets and adds with drawn gaps (zero included, so several
/// mutations land at one instant), logging the exact waiter count.
template <typename F>
sim::Task mutator(sim::Engine& eng, F& flag, std::uint64_t seed,
                  std::vector<std::string>& log) {
  for (std::uint64_t m = 0; m < kMutations; ++m) {
    co_await eng.delay(draw(seed, 6, m, 3) == 0 ? 0 : draw(seed, 7, m, 40));
    if (draw(seed, 8, m, 2) == 0) {
      flag.set(draw(seed, 9, m, 16) - 3);
    } else {
      flag.add(draw(seed, 10, m, 8) - 3);
    }
    log.push_back(std::to_string(eng.now()) + " value " +
                  std::to_string(flag.value()) + " waiting " +
                  std::to_string(flag.waiter_count()));
  }
}

template <typename F>
std::vector<std::string> run_scenario(std::uint64_t seed) {
  std::vector<std::string> log;
  sim::Engine eng;
  F flag(eng, draw(seed, 0, 0, 16) - 3);
  for (std::uint64_t i = 0; i < kParkers; ++i) {
    eng.spawn(parker(eng, flag, seed, i, log));
  }
  eng.spawn(mutator(eng, flag, seed, log));
  try {
    eng.run();
  } catch (const sim::DeadlockError& e) {
    log.push_back("stuck " + std::to_string(e.stuck_tasks) + " waiting " +
                  std::to_string(flag.waiter_count()));
  }
  return log;
}

TEST(FlagIndex, WakeOrderAndTimesMatchALinearScan) {
  std::size_t timeouts = 0;
  std::size_t stuck = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const std::vector<std::string> got = run_scenario<sim::Flag>(seed);
    const std::vector<std::string> want = run_scenario<RefFlag>(seed);
    ASSERT_EQ(got, want) << "seed " << seed;
    for (const std::string& line : got) {
      if (line.ends_with("timed out")) ++timeouts;
      if (line.starts_with("stuck")) ++stuck;
    }
  }
  // The draws reach both sides of every branch: watchdogs that expire and
  // runs that end with waiters still parked.
  EXPECT_GT(timeouts, 100u);
  EXPECT_GT(stuck, 10u);
}

TEST(FlagIndex, ManyExpiredWatchdogsKeepTheCountExact) {
  // Enough expiries on one flag to trigger the tombstone purge.
  sim::Engine eng;
  sim::Flag flag(eng, 0);
  int timed_out = 0;
  const auto waiter = [](sim::Flag& f, std::int64_t rhs,
                         int& out) -> sim::Task {
    const bool ok = co_await f.wait_for(Cmp::kGe, rhs, 10 + rhs);
    if (!ok) ++out;
  };
  for (std::int64_t i = 0; i < 300; ++i) {
    eng.spawn(waiter(flag, 1000 + i, timed_out));
  }
  eng.spawn(waiter(flag, 5, timed_out));
  eng.spawn([](sim::Engine& e, sim::Flag& f) -> sim::Task {
    co_await e.delay(5);
    EXPECT_EQ(f.waiter_count(), 301u);
    f.set(5);
    EXPECT_EQ(f.waiter_count(), 300u);
    co_await e.delay(2000);
    EXPECT_EQ(f.waiter_count(), 0u);
  }(eng, flag));
  eng.run();
  EXPECT_EQ(timed_out, 300);
  EXPECT_EQ(flag.waiter_count(), 0u);
}

/// Host seconds for 16384 stream ops on one machine, issued as 16384 /
/// `depth` streams of `depth` queued ops each. Every op's frame is live
/// from the start at both depths, so they share one working set and differ
/// only in how many ops wait on one stream's completion flag.
double stream_seconds(int depth) {
  constexpr int kOps = 16384;
  vgpu::Machine m(vgpu::MachineSpec::hgx_a100(1));
  const auto t0 = std::chrono::steady_clock::now();
  for (int stream = 0; stream < kOps / depth; ++stream) {
    vgpu::Stream& s = m.device(0).create_stream();
    for (int i = 0; i < depth; ++i) {
      s.enqueue([&m]() -> sim::Task { co_await m.engine().delay(100); });
    }
  }
  m.engine().run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(m.engine().now(), 100 * static_cast<sim::Nanos>(depth));
  return seconds;
}

TEST(FlagIndex, StreamOpCostIsFlatInQueueDepth) {
  // Best of 3 interleaved runs per depth.
  double shallow = 1e300;
  double deep = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    shallow = std::min(shallow, stream_seconds(1024));
    deep = std::min(deep, stream_seconds(16384));
  }
  EXPECT_LE(deep, 2.0 * shallow)
      << "host time for 16384 ops: " << shallow * 1e3 << " ms at 1024 queued "
      << "ops per stream, " << deep * 1e3 << " ms at 16384";
}

sim::Task noop() { co_return; }

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePoolDeathTest, ReadingADestroyedFrameIsReported) {
  EXPECT_DEATH(
      {
        sim::Engine eng;
        sim::Task t = noop();
        const sim::Task::Handle h = t.release();
        const auto* frame = static_cast<const volatile char*>(h.address());
        h.destroy();  // into the pool, poisoned
        (void)*frame;
      },
      "use-after-poison");
}
#endif

TEST(FramePool, ConcurrentEnginesRecycleFramesOnTheirOwnThreads) {
  // Sweep workers run engines at the same time; each thread's pool serves
  // only that thread (the TSan job runs this suite).
  std::vector<sim::Nanos> ends(2, 0);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < ends.size(); ++w) {
    workers.emplace_back([&ends, w] {
      for (int rep = 0; rep < 4; ++rep) {
        vgpu::Machine m(vgpu::MachineSpec::hgx_a100(1));
        vgpu::Stream& s = m.device(0).create_stream();
        for (int i = 0; i < 2048; ++i) {
          s.enqueue([&m]() -> sim::Task { co_await m.engine().delay(100); });
        }
        m.engine().run();
        ends[w] = m.engine().now();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(ends[0], 2048 * 100);
  EXPECT_EQ(ends[1], 2048 * 100);
}

TEST(FramePool, TaskOutlivingTheLastEngineIsReleased) {
  // The frame is allocated while an engine lives and destroyed after the
  // thread's last engine is gone: it must go back to the allocator, not
  // into a pool nobody drains. The scenario runs on its own thread, so a
  // block left in that thread's pool is unreachable once the thread exits
  // and LSan reports it.
  std::thread([] {
    sim::Task t;
    {
      sim::Engine eng;
      t = noop();
      eng.spawn(noop());
      eng.run();
    }
    EXPECT_TRUE(t.valid());
    t = sim::Task{};
  }).join();
}

}  // namespace
