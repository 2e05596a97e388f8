// Deadlock / lost-signal analysis for the execution checker.
//
// The Detector feeds this analyzer every signal wait, barrier arrival, and
// signal update. When the engine drains with live tasks (DeadlockError about
// to be thrown) it asks for a diagnosis:
//
//  * which actors are blocked on which flag, with the flag's name, current
//    value, the awaited condition, and the actors that historically updated
//    it — the best available "who was supposed to set it" attribution (a
//    flag nobody ever updated is a lost/never-sent signal);
//  * incomplete barriers as "k of n arrived", listing the arrived actors so
//    the absent party is identifiable;
//  * any wait-for cycle among the blocked actors, where an edge W -> B means
//    W awaits a flag whose historical producers live on B's device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/observe.hpp"

namespace check {

class DeadlockAnalyzer {
 public:
  /// Job attribution for rendered actors (serve runs); nullptr detaches.
  void set_job_map(const sim::JobMap* jobs) noexcept { job_map_ = jobs; }

  void name_flag(const void* flag, std::string_view name);
  /// The flag or barrier at `object` was freed: drop its history.
  void forget(const void* object);
  void record_update(const void* flag, const sim::Actor& updater,
                     std::int64_t value, std::string_view what);
  void wait_begin(const sim::Actor& actor, const void* flag, sim::Cmp cmp,
                  std::int64_t rhs, std::string_view what);
  void wait_end(const sim::Actor& actor);
  void barrier_arrive(const sim::Actor& actor, const void* key,
                      std::size_t parties, std::string_view what);
  void barrier_resume(const sim::Actor& actor, const void* key);

  /// Diagnosis built when the engine drains with `stuck_tasks` live
  /// coroutines; multi-line, first line "deadlock: ...".
  [[nodiscard]] std::string analyze(std::size_t stuck_tasks) const;

 private:
  struct FlagInfo {
    std::string name;
    std::int64_t value = 0;
    bool ever_updated = false;
    std::vector<std::pair<sim::Actor, std::string>> updates;  // recent, capped
  };
  struct Wait {
    const void* flag = nullptr;
    sim::Cmp cmp = sim::Cmp::kEq;
    std::int64_t rhs = 0;
    std::string what;
  };
  struct BarrierInfo {
    std::size_t parties = 0;
    std::string what;
    std::vector<sim::Actor> waiting;  // arrived, not yet resumed
  };

  [[nodiscard]] std::string flag_desc(const void* flag) const;
  [[nodiscard]] std::string actor_desc(const sim::Actor& actor) const;

  const sim::JobMap* job_map_ = nullptr;
  std::map<const void*, FlagInfo> flags_;
  std::map<sim::Actor, Wait> waits_;
  std::map<const void*, BarrierInfo> barriers_;
};

}  // namespace check
