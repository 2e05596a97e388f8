// Process-lifetime memo for pure functions of a small key.
//
// Serial references are pure functions of the few config fields they read
// plus the rank count, yet a sweep verifies dozens of cells — and a job
// server hundreds of jobs — against a handful of distinct keys. Memo
// computes each key once per process and hands every caller its own copy.
//
// Rules:
//  * Callers of a key whose first computation is still running wait for
//    it instead of computing it again (sweep workers ask for the same key
//    within milliseconds of each other).
//  * A computation that throws is not cached: the exception reaches the
//    caller that ran it and every caller waiting on it, and the next call
//    for that key computes afresh. The memo keeps a reference to each such
//    exception until it is destroyed, so the object the callers share is
//    never freed in one caller's thread while another still reads it.
//  * Values are returned by value, so a caller that edits its copy cannot
//    poison later hits.
//  * Entries live as long as the memo (a function-local static one: until
//    the process exits). Keys must be totally ordered (compare bit
//    patterns, not doubles, if a field may be NaN).
#pragma once

#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace sim {

template <class Key, class Value>
class Memo {
 public:
  /// The value for `key`, running `compute()` only if no earlier call for
  /// `key` succeeded or is still running.
  template <class Fn>
  Value get(const Key& key, Fn&& compute) {
    std::shared_ptr<Entry> e;
    {
      std::unique_lock lock(mu_);
      auto [it, inserted] = entries_.try_emplace(key);
      if (!inserted) {
        e = it->second;
        cv_.wait(lock, [&e] { return e->done; });
        if (e->error) std::rethrow_exception(e->error);
        return e->value;
      }
      it->second = e = std::make_shared<Entry>();
    }
    try {
      Value v = std::forward<Fn>(compute)();
      const std::lock_guard lock(mu_);
      e->value = v;
      e->done = true;
      cv_.notify_all();
      return v;
    } catch (...) {
      const std::lock_guard lock(mu_);
      e->error = std::current_exception();
      e->done = true;
      entries_.erase(key);  // waiters keep `e`; the next call retries
      cv_.notify_all();
      failures_.push_back(e->error);
      throw;
    }
  }

 private:
  struct Entry {
    bool done = false;
    Value value{};
    std::exception_ptr error;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, std::shared_ptr<Entry>> entries_;
  std::vector<std::exception_ptr> failures_;
};

}  // namespace sim
