// Allocation gate of the serial engine (DESIGN.md §6, "engine memory
// model"). A counting global operator new sees every heap allocation of
// the process; each scenario runs on one Engine three times and must not
// allocate at all on the third run: coroutine frames and Flag waiter
// arrays come back from the per-thread block pool, timers and open waits
// from the engine's slot tables, and the event heap keeps its capacity.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "sim/combinators.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace {

std::size_t g_news = 0;
std::size_t g_deletes = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  ++g_deletes;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using sim::Cmp;

/// Runs `scenario` three times on one engine and returns the allocations
/// made by the last run.
std::size_t steady_state_allocs(
    const std::function<void(sim::Engine&)>& scenario) {
  sim::Engine eng;
  scenario(eng);
  scenario(eng);
  const std::size_t before = g_news;
  scenario(eng);
  return g_news - before;
}

sim::Task delay_loop(sim::Engine& eng, int n) {
  for (int i = 0; i < n; ++i) co_await eng.delay(10);
}

TEST(EngineAllocs, DelayLoop) {
  EXPECT_EQ(steady_state_allocs([](sim::Engine& eng) {
              eng.spawn(delay_loop(eng, 1000));
              eng.run();
            }),
            0u);
}

sim::Task ping(sim::Flag& a, sim::Flag& b, int n) {
  for (int i = 1; i <= n; ++i) {
    a.set(i);
    co_await b.wait_geq(i);
  }
}

sim::Task pong(sim::Flag& a, sim::Flag& b, int n) {
  for (int i = 1; i <= n; ++i) {
    co_await a.wait_geq(i);
    b.set(i);
  }
}

TEST(EngineAllocs, FreshFlagPingPong) {
  EXPECT_EQ(steady_state_allocs([](sim::Engine& eng) {
              sim::Flag a(eng, 0);
              sim::Flag b(eng, 0);
              eng.spawn(ping(a, b, 500));
              eng.spawn(pong(a, b, 500));
              eng.run();
            }),
            0u);
}

/// One stream op: waits for its ticket, works, completes.
sim::Task stream_op(sim::Engine& eng, sim::Flag& done, std::int64_t ticket) {
  co_await done.wait_geq(ticket);
  co_await eng.delay(100);
  done.add(1);
}

TEST(EngineAllocs, SixteenThousandQueuedGeWaiters) {
  // A stream's op queue: every op parks on the completion counter at once.
  // The flag lives across runs, so its waiter array keeps its capacity.
  constexpr std::int64_t kDepth = 16384;
  std::unique_ptr<sim::Flag> done;
  EXPECT_EQ(steady_state_allocs([&done](sim::Engine& eng) {
              if (!done) done = std::make_unique<sim::Flag>(eng, 0);
              const std::int64_t base = done->value();
              for (std::int64_t i = 0; i < kDepth; ++i) {
                eng.spawn(stream_op(eng, *done, base + i));
              }
              eng.run();
              EXPECT_EQ(done->value(), base + kDepth);
            }),
            0u);
}

sim::Task timed_waiter(sim::Flag& f, std::int64_t rhs, sim::Nanos timeout,
                       int& satisfied) {
  // Bound to a local: with GCC 12, `if (co_await ...)` as the whole body
  // deadlocks or resumes the frame in an invalid state.
  const bool ok = co_await f.wait_for(Cmp::kGe, rhs, timeout);
  if (ok) ++satisfied;
}

TEST(EngineAllocs, TimedWaitsThatTimeOut) {
  int satisfied = 0;
  std::unique_ptr<sim::Flag> never;
  EXPECT_EQ(steady_state_allocs([&](sim::Engine& eng) {
              if (!never) never = std::make_unique<sim::Flag>(eng, 0);
              for (int i = 0; i < 200; ++i) {
                eng.spawn(timed_waiter(*never, 1, 10 + i, satisfied));
              }
              eng.run();
            }),
            0u);
  EXPECT_EQ(satisfied, 0);
  EXPECT_EQ(never->waiter_count(), 0u);
}

sim::Task set_after(sim::Engine& eng, sim::Flag& f, sim::Nanos d,
                    std::int64_t v) {
  co_await eng.delay(d);
  f.set(v);
}

TEST(EngineAllocs, TimedWaitsThatAreSatisfied) {
  int satisfied = 0;
  std::unique_ptr<sim::Flag> f;
  EXPECT_EQ(steady_state_allocs([&](sim::Engine& eng) {
              if (!f) f = std::make_unique<sim::Flag>(eng, 0);
              const std::int64_t base = f->value();
              for (int i = 0; i < 200; ++i) {
                eng.spawn(timed_waiter(*f, base + 1 + i % 7, 1000, satisfied));
              }
              eng.spawn(set_after(eng, *f, 50, base + 7));
              eng.run();
            }),
            0u);
  EXPECT_EQ(satisfied, 3 * 200);
}

/// The link ledger's pattern: one wake timer, cancelled and re-armed at
/// every admission and completion.
struct Rescheduler {
  sim::Engine* eng;
  sim::TimerToken wake;
  int fired = 0;
  void rearm(sim::Nanos d) {
    wake.cancel();
    wake = eng->schedule_callback([this] { ++fired; }, d);
  }
};

sim::Task reschedule_churn(sim::Engine& eng, Rescheduler& r, int n) {
  for (int i = 0; i < n; ++i) {
    r.rearm(50 + i % 13);
    co_await eng.delay(i % 3 == 0 ? 60 : 5);
  }
}

TEST(EngineAllocs, CallbackRescheduleAndCancelChurn) {
  Rescheduler r{};
  EXPECT_EQ(steady_state_allocs([&r](sim::Engine& eng) {
              r.eng = &eng;
              eng.spawn(reschedule_churn(eng, r, 2000));
              eng.run();
            }),
            0u);
  EXPECT_GT(r.fired, 0);
}

sim::Task child(sim::Engine& eng, int i) { co_await eng.delay(i); }

sim::Task fan_out(sim::Engine& eng, std::vector<sim::Task> tasks) {
  co_await sim::when_all(eng, std::move(tasks));
}

TEST(EngineAllocs, WhenAllFanOut) {
  // The caller's task vector is reserved before counting; when_all itself
  // (its fresh Flag, the children's frames and their counting wrappers)
  // must not allocate.
  sim::Engine eng;
  std::size_t allocs = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<sim::Task> tasks;
    tasks.reserve(8);
    const std::size_t before = g_news;
    for (int i = 0; i < 8; ++i) tasks.push_back(child(eng, i));
    eng.spawn(fan_out(eng, std::move(tasks)));
    eng.run();
    allocs = g_news - before;
  }
  EXPECT_EQ(allocs, 0u);
}

TEST(EngineAllocs, OpenWaitRegistry) {
  std::vector<sim::Engine::WaitToken> open;
  open.reserve(64);
  EXPECT_EQ(steady_state_allocs([&open](sim::Engine& eng) {
              sim::Flag f(eng, 0);
              for (int i = 0; i < 1000; ++i) {
                open.push_back(eng.note_wait_begin(
                    {sim::Actor::group(0, 1, i % 4), "signal_wait", &f,
                     Cmp::kGe, i}));
                if (open.size() == 64 || i % 3 == 0) {
                  eng.note_wait_end(open.back());
                  open.pop_back();
                }
              }
              for (sim::Engine::WaitToken t : open) eng.note_wait_end(t);
              open.clear();
            }),
            0u);
}

/// One lane's activity as the recording sites see it: back-to-back steps,
/// each recorded when it ends, under a name and suffix that would not fit
/// a std::string's small-string buffer.
sim::Task recording_lane(sim::Engine& eng, sim::Cat cat, int lane, int n) {
  for (int i = 0; i < n; ++i) {
    const sim::Nanos t0 = eng.now();
    co_await eng.delay(10);
    eng.trace().record(cat, lane, lane, t0, eng.now(),
                       "a step name longer than the buffer", "(and a suffix)");
  }
}

TEST(EngineAllocs, TraceThatKeepsNoIntervalsBuildsNoNames) {
  // 10,000 intervals per run on four categories. Each category's steps
  // touch, also from one run to the next, so its union stays one span: any
  // allocation would be a name built, or an interval stored, for nobody.
  EXPECT_EQ(steady_state_allocs([](sim::Engine& eng) {
              constexpr sim::Cat kCats[] = {sim::Cat::kCompute, sim::Cat::kComm,
                                            sim::Cat::kSync,
                                            sim::Cat::kHostApi};
              for (int lane = 0; lane < 4; ++lane) {
                eng.spawn(recording_lane(eng, kCats[lane], lane, 2500));
              }
              eng.run();
            }),
            0u);
}

sim::Task noop() { co_return; }

TEST(EngineAllocs, LastEngineDrainsThePool) {
  std::size_t deletes = 0;
  {
    sim::Engine eng;
    for (int i = 0; i < 100; ++i) eng.spawn(noop());
    eng.run();
    deletes = g_deletes;
  }
  // The 100 pooled frames go back to the allocator with the engine.
  EXPECT_GE(g_deletes - deletes, 100u);
}

TEST(EngineAllocs, FrameFreedWithoutAnEngineGoesToTheAllocator) {
  sim::Task t;
  {
    sim::Engine eng;
    t = noop();
  }
  const std::size_t deletes = g_deletes;
  t = sim::Task{};
  EXPECT_EQ(g_deletes, deletes + 1);
}

}  // namespace
