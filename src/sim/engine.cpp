#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/observe.hpp"
#include "sim/sync.hpp"

namespace sim {

std::coroutine_handle<> Task::FinalAwaiter::await_suspend(Handle h) noexcept {
  auto& p = h.promise();
  if (p.continuation) {
    // Awaited subtask: transfer control straight back to the awaiter. The
    // awaiting coroutine owns the Task object and will destroy the frame.
    return p.continuation;
  }
  if (p.owner != nullptr) {
    p.owner->on_root_done(h);
  }
  return std::noop_coroutine();
}

Engine::~Engine() {
  // Destroy still-suspended root frames (e.g. after an exception unwound
  // run()). Finished frames first, then live ones in spawn order. Last,
  // hand this thread's pooled frames back if no other Engine lives here.
  // Teardown publishes nothing: an attached observer may already be gone
  // when a destroyed frame releases a flag (Engine::forget).
  observer_ = nullptr;
  reap_finished();
  for (Task::promise_type* p = first_root_; p != nullptr;) {
    Task::promise_type* const next = p->next_root;
    Task::Handle::from_promise(*p).destroy();
    p = next;
  }
  detail::block_pool.engine_closed();
}

TimerToken Engine::schedule_callback(std::function<void()> fn, Nanos delay) {
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = queue_.push_timer(now_ + delay, seq, std::move(fn));
  return TimerToken{this, slot, seq};
}

void Engine::spawn(Task t) {
  Task::Handle h = t.release();
  if (!h) return;
  Task::promise_type& p = h.promise();
  p.owner = this;
  p.prev_root = last_root_;
  if (last_root_ != nullptr) {
    last_root_->next_root = &p;
  } else {
    first_root_ = &p;
  }
  last_root_ = &p;
  ++live_roots_;
  schedule(h, 0);
}

void Engine::on_root_done(Task::Handle h) {
  Task::promise_type& p = h.promise();
  (p.prev_root != nullptr ? p.prev_root->next_root : first_root_) = p.next_root;
  (p.next_root != nullptr ? p.next_root->prev_root : last_root_) = p.prev_root;
  finished_.push_back(h);
  --live_roots_;
  if (!error_ && p.exception) {
    error_ = p.exception;
  }
}

void Engine::reap_finished() {
  for (auto h : finished_) h.destroy();
  finished_.clear();
}

void Engine::run() {
  while (queue_.peek_live() != nullptr) {
    const Event ev = queue_.pop();
    now_ = ev.at;
    if (ev.handle == nullptr) {
      // peek_live skipped cancelled entries, so this timer is alive. Firing
      // frees its slot (a later cancel is a no-op) before the callback runs.
      queue_.fire(ev.timer)();
    } else {
      ev.handle.resume();
    }
    queue_.compact_if_bloated();
    reap_finished();
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }
  if (live_roots_ != 0) {
    // The queue was drained through peek_live, so cancelled-but-unpopped
    // callbacks are gone: the hang is real, not a dead timer. Give an
    // attached checker the chance to turn the bare hang into a wait-for
    // diagnosis before the exception unwinds everything; the always-on
    // open-wait registry names stuck actors even without one.
    if (observer_ != nullptr) observer_->on_deadlock(live_roots_);
    std::string report = describe_open_waits();
    report += describe_incidents();
    if (!report.empty()) {
      report = "simulation deadlock: " + std::to_string(live_roots_) +
               " task(s) blocked with an empty event queue" + report;
    }
    throw DeadlockError(live_roots_, report);
  }
}

Engine::WaitToken Engine::note_wait_begin(const WaitSite& site) {
  WaitToken t = 0;
  if (free_waits_.empty()) {
    t = static_cast<WaitToken>(waits_.size());
    waits_.emplace_back();
  } else {
    t = free_waits_.back();
    free_waits_.pop_back();
  }
  waits_[t] = OpenWait{site, ++next_wait_serial_};
  return t;
}

void Engine::note_wait_end(WaitToken token) {
  waits_[token].serial = 0;
  free_waits_.push_back(token);
}

std::string Engine::flag_name(const void* flag) const {
  auto it = flag_names_.find(flag);
  if (it != flag_names_.end() && !it->second.empty()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "<flag@%p>", flag);
  return buf;
}

void Engine::name_flag(const void* flag, std::string name) {
  if (observer_ != nullptr) observer_->on_flag_name(flag, name);
  flag_names_[flag] = std::move(name);
}

void Engine::forget(const void* object) {
  flag_names_.erase(object);
  if (observer_ != nullptr) observer_->on_mem_release(object);
}

std::string Engine::describe_wait_site(const WaitSite& site) const {
  std::string out = "\n  " + site.who.str();
  if (job_map_ != nullptr) out += job_map_->suffix(site.who);
  out += " blocked on ";
  out += site.what;
  out += ": " + flag_name(site.flag) + " " + cmp_str(site.cmp) + " " +
         std::to_string(site.rhs) + "; value " +
         std::to_string(site.flag->value());
  return out;
}

std::string Engine::describe_open_waits() const {
  std::vector<const OpenWait*> open;
  for (const OpenWait& w : waits_) {
    if (w.serial != 0) open.push_back(&w);
  }
  std::sort(open.begin(), open.end(), [](const OpenWait* a, const OpenWait* b) {
    return a->serial < b->serial;
  });
  std::string out;
  for (const OpenWait* w : open) out += describe_wait_site(w->site);
  return out;
}

std::string Engine::describe_incidents() const {
  std::string out;
  for (const std::string& line : incidents_) {
    out += "\n  incident: ";
    out += line;
  }
  return out;
}

}  // namespace sim
