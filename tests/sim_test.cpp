// Unit tests for the discrete-event engine, coroutine tasks, synchronization
// primitives, trace analysis, and run statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace {

using sim::Barrier;
using sim::Cat;
using sim::Cmp;
using sim::Engine;
using sim::Flag;
using sim::Nanos;
using sim::RunStats;
using sim::Task;

TEST(Time, Conversions) {
  EXPECT_EQ(sim::usec(1.0), 1000);
  EXPECT_EQ(sim::usec(0.5), 500);
  EXPECT_EQ(sim::msec(2.0), 2'000'000);
  EXPECT_EQ(sim::sec(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(sim::to_usec(1500), 1.5);
  EXPECT_DOUBLE_EQ(sim::to_sec(2'000'000'000), 2.0);
}

TEST(Engine, DelayAdvancesSimulatedTime) {
  Engine eng;
  Nanos observed = -1;
  eng.spawn([](Engine& e, Nanos& out) -> Task {
    co_await e.delay(sim::usec(5));
    out = e.now();
  }(eng, observed));
  eng.run();
  EXPECT_EQ(observed, 5000);
  EXPECT_EQ(eng.now(), 5000);
}

TEST(Engine, EventsOrderedByTimeThenFifo) {
  Engine eng;
  std::vector<int> order;
  auto proc = [](Engine& e, std::vector<int>& ord, int id, Nanos d) -> Task {
    co_await e.delay(d);
    ord.push_back(id);
  };
  // Same timestamps must resolve in spawn (FIFO) order.
  eng.spawn(proc(eng, order, 1, 100));
  eng.spawn(proc(eng, order, 2, 100));
  eng.spawn(proc(eng, order, 3, 50));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(Engine, NestedTaskResumesParentAtChildCompletionTime) {
  Engine eng;
  Nanos t_after_child = -1;
  auto child = [](Engine& e) -> Task { co_await e.delay(300); };
  eng.spawn([](Engine& e, decltype(child)& c, Nanos& out) -> Task {
    co_await e.delay(100);
    co_await c(e);
    out = e.now();
  }(eng, child, t_after_child));
  eng.run();
  EXPECT_EQ(t_after_child, 400);
}

TEST(Engine, ExceptionInRootTaskPropagatesFromRun) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task {
    co_await e.delay(10);
    throw std::runtime_error("boom");
  }(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ExceptionInNestedTaskPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  auto child = [](Engine& e) -> Task {
    co_await e.delay(1);
    throw std::logic_error("inner");
  };
  eng.spawn([](Engine& e, decltype(child)& c, bool& flag) -> Task {
    try {
      co_await c(e);
    } catch (const std::logic_error&) {
      flag = true;
    }
  }(eng, child, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, DeadlockDetectedWhenTaskBlocksForever) {
  Engine eng;
  Flag flag(eng, 0);
  eng.spawn([](Flag& f) -> Task { co_await f.wait_geq(1); }(flag));
  EXPECT_THROW(eng.run(), sim::DeadlockError);
}

TEST(Engine, LiveTasksTracksCompletion) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task { co_await e.delay(1); }(eng));
  EXPECT_EQ(eng.live_tasks(), 1u);
  eng.run();
  EXPECT_EQ(eng.live_tasks(), 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = []() {
    Engine eng;
    std::vector<std::pair<int, Nanos>> log;
    for (int i = 0; i < 16; ++i) {
      eng.spawn([](Engine& e, std::vector<std::pair<int, Nanos>>& l,
                   int id) -> Task {
        for (int k = 0; k < 3; ++k) {
          co_await e.delay((id * 7 + k * 13) % 29);
          l.emplace_back(id, e.now());
        }
      }(eng, log, i));
    }
    eng.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Flag, WaitReturnsImmediatelyWhenAlreadySatisfied) {
  Engine eng;
  Flag flag(eng, 5);
  Nanos when = -1;
  eng.spawn([](Engine& e, Flag& f, Nanos& out) -> Task {
    co_await f.wait_geq(5);
    out = e.now();
  }(eng, flag, when));
  eng.run();
  EXPECT_EQ(when, 0);
}

TEST(Flag, WakesWaiterAtSignalTime) {
  Engine eng;
  Flag flag(eng, 0);
  Nanos when = -1;
  eng.spawn([](Engine& e, Flag& f, Nanos& out) -> Task {
    co_await f.wait_geq(2);
    out = e.now();
  }(eng, flag, when));
  eng.spawn([](Engine& e, Flag& f) -> Task {
    co_await e.delay(100);
    f.set(1);  // insufficient
    co_await e.delay(100);
    f.set(2);  // satisfies
  }(eng, flag));
  eng.run();
  EXPECT_EQ(when, 200);
}

TEST(Flag, AllComparisonOperatorsBehave) {
  EXPECT_TRUE(sim::compare(Cmp::kEq, 3, 3));
  EXPECT_FALSE(sim::compare(Cmp::kEq, 3, 4));
  EXPECT_TRUE(sim::compare(Cmp::kNe, 3, 4));
  EXPECT_TRUE(sim::compare(Cmp::kGt, 4, 3));
  EXPECT_FALSE(sim::compare(Cmp::kGt, 3, 3));
  EXPECT_TRUE(sim::compare(Cmp::kGe, 3, 3));
  EXPECT_TRUE(sim::compare(Cmp::kLt, 2, 3));
  EXPECT_TRUE(sim::compare(Cmp::kLe, 3, 3));
  EXPECT_FALSE(sim::compare(Cmp::kLe, 4, 3));
}

TEST(Flag, MultipleWaitersWithDifferentThresholds) {
  Engine eng;
  Flag flag(eng, 0);
  std::vector<std::pair<int, Nanos>> woke;
  auto waiter = [](Engine& e, Flag& f, std::vector<std::pair<int, Nanos>>& log,
                   int id, std::int64_t threshold) -> Task {
    co_await f.wait_geq(threshold);
    log.emplace_back(id, e.now());
  };
  eng.spawn(waiter(eng, flag, woke, 1, 1));
  eng.spawn(waiter(eng, flag, woke, 2, 2));
  eng.spawn(waiter(eng, flag, woke, 3, 3));
  eng.spawn([](Engine& e, Flag& f) -> Task {
    co_await e.delay(10);
    f.set(2);
    co_await e.delay(10);
    f.set(3);
  }(eng, flag));
  eng.run();
  ASSERT_EQ(woke.size(), 3u);
  EXPECT_EQ(woke[0], (std::pair<int, Nanos>{1, 10}));
  EXPECT_EQ(woke[1], (std::pair<int, Nanos>{2, 10}));
  EXPECT_EQ(woke[2], (std::pair<int, Nanos>{3, 20}));
}

TEST(Flag, AddAccumulates) {
  Engine eng;
  Flag flag(eng, 0);
  flag.add(3);
  flag.add(-1);
  EXPECT_EQ(flag.value(), 2);
}

TEST(Barrier, ReleasesAllPartiesTogether) {
  Engine eng;
  Barrier bar(eng, 3);
  std::vector<Nanos> times;
  auto worker = [](Engine& e, Barrier& b, std::vector<Nanos>& t, Nanos d) -> Task {
    co_await e.delay(d);
    co_await b.arrive_and_wait();
    t.push_back(e.now());
  };
  eng.spawn(worker(eng, bar, times, 10));
  eng.spawn(worker(eng, bar, times, 50));
  eng.spawn(worker(eng, bar, times, 30));
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  for (Nanos t : times) EXPECT_EQ(t, 50);
  EXPECT_EQ(bar.generation(), 1u);
}

TEST(Barrier, CyclicReuseAcrossIterations) {
  Engine eng;
  constexpr int kIters = 5;
  constexpr int kParties = 4;
  Barrier bar(eng, kParties);
  std::vector<int> per_iter_count(kIters, 0);
  auto worker = [](Engine& e, Barrier& b, std::vector<int>& counts,
                   int id) -> Task {
    for (int it = 0; it < kIters; ++it) {
      co_await e.delay(id * 3 + 1);
      counts[static_cast<std::size_t>(it)]++;
      co_await b.arrive_and_wait();
      // After the barrier every party must have arrived in this iteration.
      if (counts[static_cast<std::size_t>(it)] != kParties) {
        throw std::logic_error("barrier released early");
      }
    }
  };
  for (int i = 0; i < kParties; ++i) eng.spawn(worker(eng, bar, per_iter_count, i));
  eng.run();
  EXPECT_EQ(bar.generation(), static_cast<std::uint64_t>(kIters));
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Engine eng;
  Barrier bar(eng, 1);
  bool done = false;
  eng.spawn([](Barrier& b, bool& d) -> Task {
    co_await b.arrive_and_wait();
    d = true;
  }(bar, done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(TimerToken, CancelReleasesPayloadImmediately) {
  sim::Engine eng;
  auto payload = std::make_shared<int>(42);
  EXPECT_EQ(payload.use_count(), 1);
  sim::TimerToken tok =
      eng.schedule_callback([payload] { (void)*payload; }, 1000);
  EXPECT_EQ(payload.use_count(), 2);
  tok.cancel();
  // The fix under test: the captured closure is dropped at cancel() time,
  // not when the dead queue entry is eventually popped.
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_FALSE(tok.armed());
  eng.run();
}

TEST(TimerToken, CancelAfterFireIsANoOp) {
  sim::Engine eng;
  int fired = 0;
  sim::TimerToken tok = eng.schedule_callback([&fired] { ++fired; }, 10);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(tok.armed());
  tok.cancel();  // must not crash, must not fire again
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(TimerToken, CancelledTimerLeavesNoTraceOnTime) {
  sim::Engine eng;
  sim::TimerToken tok = eng.schedule_callback([] {}, 5000);
  bool ran = false;
  (void)eng.schedule_callback([&ran] { ran = true; }, 10);
  tok.cancel();
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 10) << "dead entry advanced the clock";
}

sim::Task park_forever(sim::Engine& eng, sim::Flag& f) {
  const sim::Engine::WaitToken wt = eng.note_wait_begin(
      {sim::Actor::host(0), "never_flag", &f, sim::Cmp::kGe, 1});
  co_await f.wait_geq(1);
  eng.note_wait_end(wt);
}

TEST(TimerToken, HangReportIgnoresCancelledCallbacks) {
  // A root parked on a never-set flag plus a sea of cancelled timers: the
  // run must end in a DeadlockError naming the real waiter — dead entries
  // are drained before the report, never counted as pending work.
  sim::Engine eng;
  sim::Flag never(eng, 0);
  eng.name_flag(&never, "never_flag");
  std::vector<sim::TimerToken> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(eng.schedule_callback([] { FAIL(); }, 1000 + i));
  }
  eng.spawn(park_forever(eng, never));
  for (auto& t : tokens) t.cancel();
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.stuck_tasks, 1u);
    EXPECT_NE(std::string(e.what()).find("never_flag"), std::string::npos)
        << e.what();
  }
}

TEST(Trace, UnionMergesOverlappingIntervals) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kComm, 0, 1, 50, 150);   // overlaps previous
  tr.record(Cat::kComm, 0, 0, 200, 250);  // disjoint
  EXPECT_EQ(tr.union_length(Cat::kComm), 200);
}

TEST(Trace, OverlapBetweenCategories) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kCompute, 0, 1, 60, 200);
  EXPECT_EQ(tr.overlap_length(Cat::kComm, Cat::kCompute), 40);
  EXPECT_DOUBLE_EQ(tr.overlap_ratio(Cat::kComm, Cat::kCompute), 0.4);
}

TEST(Trace, DeviceFilterRestrictsAnalysis) {
  sim::Trace tr;
  tr.keep_intervals();
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kComm, 1, 0, 0, 300);
  EXPECT_EQ(tr.union_length(Cat::kComm, 0), 100);
  EXPECT_EQ(tr.union_length(Cat::kComm, 1), 300);
  EXPECT_EQ(tr.union_length(Cat::kComm), 300);  // union across devices merges
}

TEST(Trace, DisabledTraceDropsIntervals) {
  sim::Trace tr;
  tr.keep_intervals();
  tr.set_enabled(false);
  tr.record(Cat::kComm, 0, 0, 0, 100);
  EXPECT_TRUE(tr.intervals().empty());
}

TEST(Trace, ZeroLengthIntervalsIgnored) {
  sim::Trace tr;
  tr.keep_intervals();
  tr.record(Cat::kComm, 0, 0, 100, 100);
  EXPECT_TRUE(tr.intervals().empty());
}

/// Strict reader for the JSON grammar (RFC 8259): whether a document
/// parses, and every string it decodes, in document order.
class JsonReader {
 public:
  explicit JsonReader(std::string_view doc) : s_(doc) {}

  bool parse() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }
  std::vector<std::string> strings;

 private:
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void ws() {
    while (i_ < s_.size() && std::string_view(" \t\n\r").find(s_[i_]) !=
                                 std::string_view::npos) {
      ++i_;
    }
  }
  bool value() {
    if (i_ >= s_.size()) return false;
    if (s_[i_] == '{') return members('}', true);
    if (s_[i_] == '[') return members(']', false);
    if (s_[i_] == '"') return string();
    for (std::string_view lit : {"true", "false", "null"}) {
      if (s_.substr(i_, lit.size()) == lit) {
        i_ += lit.size();
        return true;
      }
    }
    return number();
  }
  /// An object (`keyed`) or array body after its opening bracket.
  bool members(char close, bool keyed) {
    ++i_;
    ws();
    if (eat(close)) return true;
    for (;;) {
      ws();
      if (keyed) {
        if (!string()) return false;
        ws();
        if (!eat(':')) return false;
        ws();
      }
      if (!value()) return false;
      ws();
      if (eat(close)) return true;
      if (!eat(',')) return false;
    }
  }
  bool string() {
    if (!eat('"')) return false;
    std::string out;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') {
        strings.push_back(out);
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      const std::string_view from = "\"\\/bfnrt";
      const std::string_view to = "\"\\/\b\f\n\r\t";
      if (const auto k = from.find(e); k != std::string_view::npos) {
        out += to[k];
      } else if (e == 'u' && i_ + 4 <= s_.size()) {
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
          const char h = s_[i_++];
          const auto v = std::string_view("0123456789abcdef").find(
              static_cast<char>(h | 0x20));
          if (v == std::string_view::npos) return false;
          code = code * 16 + static_cast<unsigned>(v);
        }
        if (code >= 0x80) return false;  // only ASCII escapes are expected
        out += static_cast<char>(code);
      } else {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    eat('-');
    auto digits = [this] {
      const std::size_t from = i_;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
      return i_ > from;
    };
    if (!digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return i_ > start;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

TEST(Trace, ChromeJsonContainsEvents) {
  sim::Trace tr;
  tr.keep_intervals();
  tr.record(Cat::kCompute, 2, 1, 1000, 3000, "stencil");
  // A quote, a backslash, a newline and a control byte in one name, and an
  // unnamed interval, which takes its category's name.
  const std::string odd = "job \"a\"\\step\nx\x01y";
  tr.record(Cat::kComm, 0, 0, 0, 500, odd);
  tr.record(Cat::kSync, -1, 0, 100, 200);
  const std::string json = tr.to_chrome_json();
  EXPECT_NE(json.find("\"stencil\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sync\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  // The whole trace parses, and the odd name decodes back to itself.
  JsonReader reader(json);
  ASSERT_TRUE(reader.parse()) << json;
  EXPECT_NE(std::find(reader.strings.begin(), reader.strings.end(), odd),
            reader.strings.end());
}

TEST(Trace, OverlapRatioZeroWhenNoIntervals) {
  sim::Trace tr;
  EXPECT_DOUBLE_EQ(tr.overlap_ratio(Cat::kComm, Cat::kCompute), 0.0);
}

TEST(Trace, UnionLengthAnyEmptyCategorySetIsZero) {
  sim::Trace tr;
  tr.record(Cat::kCompute, 0, 0, 0, 100);
  EXPECT_EQ(tr.union_length_any({}), 0);
}

TEST(Trace, UnionLengthAnyMergesAcrossCategories) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kSync, 0, 0, 50, 150);      // overlaps the comm interval
  tr.record(Cat::kHostApi, -1, 0, 200, 250); // disjoint
  tr.record(Cat::kCompute, 0, 0, 0, 1000);   // not requested; must not count
  EXPECT_EQ(tr.union_length_any({Cat::kComm, Cat::kSync, Cat::kHostApi}), 200);
}

TEST(Trace, OverlapRatioZeroWhenOneCategoryEmpty) {
  sim::Trace tr;
  tr.record(Cat::kCompute, 0, 0, 0, 100);
  // No comm intervals at all: the ratio's denominator union is empty.
  EXPECT_DOUBLE_EQ(tr.overlap_ratio(Cat::kComm, Cat::kCompute), 0.0);
  // And the other way around: comm exists but compute is empty.
  sim::Trace tr2;
  tr2.record(Cat::kComm, 0, 0, 0, 100);
  EXPECT_DOUBLE_EQ(tr2.overlap_ratio(Cat::kComm, Cat::kCompute), 0.0);
}

TEST(Trace, RecordFromSecondThreadThrows) {
  // Traces are thread-confined: each sweep job must own its Machine/Engine/
  // Trace. Recording from a second thread is a programming error the trace
  // detects at runtime.
  sim::Trace tr;
  tr.keep_intervals();
  tr.record(Cat::kCompute, 0, 0, 0, 100);  // bind to this thread
  bool threw = false;
  std::thread other([&] {
    try {
      tr.record(Cat::kCompute, 0, 0, 100, 200);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  EXPECT_EQ(tr.intervals().size(), 1u);  // the cross-thread record was rejected
}

TEST(Trace, ClearReleasesThreadOwnership) {
  // clear() resets ownership so a pooled worker can reuse a trace for the
  // next job.
  sim::Trace tr;
  tr.keep_intervals();
  std::thread first([&] { tr.record(Cat::kCompute, 0, 0, 0, 100); });
  first.join();
  tr.clear();
  EXPECT_NO_THROW(tr.record(Cat::kComm, 0, 0, 0, 50));  // this thread now owns
  EXPECT_EQ(tr.intervals().size(), 1u);
}

TEST(Trace, RecordEndingBeforeItsCategorysLastThrows) {
  // Every recording site ends its interval at the engine's current time;
  // the unions are merged on that order, so a break in it is an error.
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 100, 200);
  tr.record(Cat::kComm, 1, 0, 150, 200);    // same end: in order
  tr.record(Cat::kCompute, 0, 0, 0, 50);    // another category's own order
  EXPECT_THROW(tr.record(Cat::kComm, 0, 0, 0, 199), std::logic_error);
  EXPECT_NO_THROW(tr.record(Cat::kComm, 0, 0, 150, 150));  // dropped
  EXPECT_EQ(tr.union_length(Cat::kComm), 100);
  EXPECT_EQ(tr.union_length(Cat::kCompute), 50);
}

TEST(Trace, IntervalReadersThrowUnlessTheTraceKeepsIntervals) {
  // The cross-device unions need no stored intervals; everything that reads
  // intervals fails loudly on a trace that was not asked to keep them.
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  EXPECT_EQ(tr.union_length(Cat::kComm), 100);
  EXPECT_THROW((void)tr.intervals(), std::logic_error);
  EXPECT_THROW((void)tr.to_chrome_json(), std::logic_error);
  EXPECT_THROW((void)tr.summary(100), std::logic_error);
  EXPECT_THROW((void)tr.union_length(Cat::kComm, 0), std::logic_error);
  EXPECT_THROW((void)tr.union_length(Cat::kComm, -1), std::logic_error);
}

TEST(Stats, MinMeanMedianMax) {
  RunStats s;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(Stats, MedianEvenCount) {
  RunStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Stats, EmptyThrows) {
  RunStats s;
  EXPECT_THROW(static_cast<void>(s.min()), std::logic_error);
  EXPECT_THROW(static_cast<void>(s.mean()), std::logic_error);
}

TEST(Stats, SpeedupPercentMatchesPaperFormula) {
  // Speedup% = (T_baseline - T_ours) / T_baseline * 100.
  EXPECT_DOUBLE_EQ(sim::speedup_percent(10.0, 5.0), 50.0);
  EXPECT_DOUBLE_EQ(sim::speedup_percent(10.0, 0.38), 96.2);
  EXPECT_DOUBLE_EQ(sim::speedup_percent(0.0, 1.0), 0.0);
}

// Property-style sweep: barriers of any size synchronize: after a barrier, a
// shared counter incremented before the barrier equals the party count.
class BarrierSweep : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSweep, CounterCompleteAfterBarrier) {
  const int parties = GetParam();
  Engine eng;
  Barrier bar(eng, static_cast<std::size_t>(parties));
  int counter = 0;
  bool ok = true;
  for (int i = 0; i < parties; ++i) {
    eng.spawn([](Engine& e, Barrier& b, int& cnt, bool& good, int id,
                 int total) -> Task {
      co_await e.delay(id % 5);
      ++cnt;
      co_await b.arrive_and_wait();
      good = good && (cnt == total);
    }(eng, bar, counter, ok, i, parties));
  }
  eng.run();
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierSweep, ::testing::Values(1, 2, 3, 8, 108));

}  // namespace
