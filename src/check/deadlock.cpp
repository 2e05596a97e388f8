#include "check/deadlock.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace check {

namespace {

// Attribution history per flag; enough to name the producer without
// remembering every iteration's update.
constexpr std::size_t kMaxUpdatesKept = 4;

/// The device a blocked/producing actor runs on. For a wire this is the
/// SOURCE device: signals delivered over wire s->d were produced by PE s.
[[nodiscard]] int actor_device(const sim::Actor& a) { return a.a; }

}  // namespace

void DeadlockAnalyzer::name_flag(const void* flag, std::string_view name) {
  flags_[flag].name = std::string(name);
}

void DeadlockAnalyzer::forget(const void* object) {
  flags_.erase(object);
  barriers_.erase(object);
}

void DeadlockAnalyzer::record_update(const void* flag,
                                     const sim::Actor& updater,
                                     std::int64_t value,
                                     std::string_view what) {
  FlagInfo& f = flags_[flag];
  f.value = value;
  f.ever_updated = true;
  if (f.updates.size() >= kMaxUpdatesKept) f.updates.erase(f.updates.begin());
  f.updates.emplace_back(updater, std::string(what));
}

void DeadlockAnalyzer::wait_begin(const sim::Actor& actor, const void* flag,
                                  sim::Cmp cmp, std::int64_t rhs,
                                  std::string_view what) {
  waits_[actor] = Wait{flag, cmp, rhs, std::string(what)};
}

void DeadlockAnalyzer::wait_end(const sim::Actor& actor) {
  waits_.erase(actor);
}

void DeadlockAnalyzer::barrier_arrive(const sim::Actor& actor, const void* key,
                                      std::size_t parties,
                                      std::string_view what) {
  BarrierInfo& b = barriers_[key];
  b.parties = parties;
  b.what = std::string(what);
  b.waiting.push_back(actor);
}

void DeadlockAnalyzer::barrier_resume(const sim::Actor& actor,
                                      const void* key) {
  auto it = barriers_.find(key);
  if (it == barriers_.end()) return;
  auto& w = it->second.waiting;
  auto pos = std::find(w.begin(), w.end(), actor);
  if (pos != w.end()) w.erase(pos);
}

std::string DeadlockAnalyzer::actor_desc(const sim::Actor& actor) const {
  std::string s = actor.str();
  if (job_map_ != nullptr) s += job_map_->suffix(actor);
  return s;
}

std::string DeadlockAnalyzer::flag_desc(const void* flag) const {
  auto it = flags_.find(flag);
  if (it != flags_.end() && !it->second.name.empty()) return it->second.name;
  std::ostringstream os;
  os << "<flag@" << flag << ">";
  return os.str();
}

std::string DeadlockAnalyzer::analyze(std::size_t stuck_tasks) const {
  std::ostringstream os;
  os << "deadlock: engine stalled with " << stuck_tasks << " live task(s)";

  // Every actor known to be blocked right now: open signal waits plus
  // arrivals at barriers that never filled.
  std::vector<sim::Actor> blocked;
  for (const auto& [actor, wait] : waits_) blocked.push_back(actor);
  for (const auto& [key, b] : barriers_) {
    if (!b.waiting.empty() && b.waiting.size() < b.parties) {
      blocked.insert(blocked.end(), b.waiting.begin(), b.waiting.end());
    }
  }

  for (const auto& [actor, wait] : waits_) {
    os << "\n  " << actor_desc(actor) << " blocked on " << wait.what << ": "
       << flag_desc(wait.flag) << " " << sim::cmp_str(wait.cmp) << " " << wait.rhs;
    auto fit = flags_.find(wait.flag);
    if (fit == flags_.end() || !fit->second.ever_updated) {
      os << "; never updated by anyone (lost/never-sent signal)";
    } else {
      os << "; value " << fit->second.value << ", last updated by "
         << actor_desc(fit->second.updates.back().first) << " ("
         << fit->second.updates.back().second << ")";
    }
  }

  for (const auto& [key, b] : barriers_) {
    if (b.waiting.empty() || b.waiting.size() >= b.parties) continue;
    os << "\n  barrier \"" << b.what << "\": " << b.waiting.size() << " of "
       << b.parties << " arrived — ";
    for (std::size_t i = 0; i < b.waiting.size(); ++i) {
      if (i > 0) os << ", ";
      os << actor_desc(b.waiting[i]);
    }
  }

  // Wait-for graph: W -> B when W awaits a flag historically produced on
  // B's device and B is itself blocked.
  std::map<sim::Actor, std::vector<sim::Actor>> edges;
  for (const auto& [actor, wait] : waits_) {
    auto fit = flags_.find(wait.flag);
    if (fit == flags_.end()) continue;
    std::set<int> producer_devices;
    for (const auto& [updater, what] : fit->second.updates) {
      producer_devices.insert(actor_device(updater));
    }
    for (const sim::Actor& b : blocked) {
      if (b != actor && producer_devices.count(actor_device(b)) > 0) {
        edges[actor].push_back(b);
      }
    }
  }

  std::map<sim::Actor, int> color;  // 0 unseen, 1 on path, 2 done
  std::vector<sim::Actor> path;
  std::vector<sim::Actor> cycle;
  std::function<bool(const sim::Actor&)> dfs =
      [&](const sim::Actor& v) -> bool {
    color[v] = 1;
    path.push_back(v);
    auto eit = edges.find(v);
    if (eit != edges.end()) {
      for (const sim::Actor& n : eit->second) {
        auto cit = color.find(n);
        const int c = cit == color.end() ? 0 : cit->second;
        if (c == 1) {
          auto start = std::find(path.begin(), path.end(), n);
          cycle.assign(start, path.end());
          cycle.push_back(n);
          return true;
        }
        if (c == 0 && dfs(n)) return true;
      }
    }
    color[v] = 2;
    path.pop_back();
    return false;
  };
  for (const auto& [actor, wait] : waits_) {
    if (color.find(actor) == color.end() && dfs(actor)) break;
  }
  if (!cycle.empty()) {
    os << "\n  wait-for cycle: ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) os << " -> ";
      os << actor_desc(cycle[i]);
    }
  }
  return os.str();
}

}  // namespace check
