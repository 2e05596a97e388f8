// Execution-observer interface for dynamic checking.
//
// An Observer attached to an Engine receives a stream of synchronization and
// memory events from the vgpu/vshmem/exec layers: actor lifecycles, stream
// ordering, barrier arrivals, signal updates and waits, put issue/delivery,
// quiet, and application-level memory accesses at halo-region
// granularity. The checker subsystem (src/check/) implements this interface
// to run a vector-clock happens-before race detector and a deadlock
// analyzer; a null observer costs one pointer test per event site and the
// observer NEVER influences simulated time — publication happens strictly
// between timed awaits.
//
// Identity conventions:
//  * Actors are sequential timelines. Host threads, streams, kernel block
//    groups, and directed inter-device links ("wires") each get one. A wire
//    is a valid sequential actor because Machine::transfer serializes
//    same-link transfers in issue order.
//  * MemRange identifies a span of an allocation by the allocation's data
//    pointer plus LOGICAL byte offsets. The base pointer is never
//    dereferenced — timing-only runs allocate one element per symmetric
//    array but keep full logical offsets, so raw addresses would alias
//    across allocations while (base, offset) ranges stay exact.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "sim/actor.hpp"
#include "sim/sync.hpp"

namespace sim {

/// Actor -> owning job/tenant label for multi-tenant runs (src/serve/).
///
/// Streams and kernel groups are keyed by (device, stream lane): a lane is
/// created by exactly one job and never reused across jobs within a run, so
/// the pair identifies the owner. A World unbinds its lanes when it is
/// destroyed, so the map holds the lanes of live jobs only. Hosts and wires
/// are shared infrastructure and stay unattributed. Consulted by the
/// engine's end-of-run hang report and by check::Detector's attribution
/// strings; it never affects simulated time.
class JobMap {
 public:
  void bind(int device, int lane, std::string label) {
    lanes_[{device, lane}] = std::move(label);
  }
  /// Forgets the owner of a released lane.
  void unbind(int device, int lane) { lanes_.erase({device, lane}); }

  /// Label of the job owning (device, lane); "" when unbound.
  [[nodiscard]] std::string find_lane(int device, int lane) const {
    auto it = lanes_.find({device, lane});
    return it == lanes_.end() ? std::string() : it->second;
  }

  /// Label of the job owning `a`; "" for unbound or shared actors.
  [[nodiscard]] std::string find(const Actor& a) const {
    if (a.kind != Actor::Kind::kStream && a.kind != Actor::Kind::kKernelGroup) {
      return {};
    }
    return find_lane(a.a, a.b);
  }

  /// " [label]" ready to append to a rendered actor identity; "" if none.
  [[nodiscard]] std::string suffix(const Actor& a) const {
    std::string l = find(a);
    return l.empty() ? l : " [" + l + "]";
  }

  [[nodiscard]] bool empty() const noexcept { return lanes_.empty(); }
  /// Lanes currently bound.
  [[nodiscard]] std::size_t size() const noexcept { return lanes_.size(); }

 private:
  std::map<std::pair<std::int32_t, std::int32_t>, std::string> lanes_;
};

/// A byte range of one allocation: identity pointer + logical offsets.
/// Ranges on different bases never overlap; `base` is never dereferenced.
///
/// A range is either contiguous ([lo, hi), stride == 0) or strided:
/// `count` elements of `elem` bytes, `stride` bytes apart, starting at `lo`
/// (with [lo, hi) still the bounding box). Strided publication keeps race
/// checking element-accurate: two interleaved halo columns overlap as
/// bounding boxes but touch disjoint bytes, and must not race.
struct MemRange {
  std::uintptr_t base = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t stride = 0;  // byte distance between element starts; 0 = dense
  std::size_t elem = 0;    // bytes per element (strided ranges only)
  std::size_t count = 0;   // elements (strided ranges only)

  [[nodiscard]] constexpr bool empty() const noexcept {
    return base == 0 || hi <= lo;
  }

  /// True for a range whose elements do not tile the bounding box densely.
  [[nodiscard]] constexpr bool strided() const noexcept {
    return stride > elem && count > 0;
  }

  /// Range covering `count` elements starting at element `off` of the
  /// allocation whose storage `s` views. Offsets are logical: `s` may be a
  /// 1-element placeholder in timing-only runs.
  template <typename T>
  [[nodiscard]] static MemRange of(std::span<T> s, std::size_t off,
                                   std::size_t count) {
    return MemRange{reinterpret_cast<std::uintptr_t>(s.data()),
                    off * sizeof(T), (off + count) * sizeof(T)};
  }
};

/// Checker-facing description of one Machine::transfer. A default-constructed
/// TransferObs (invalid actor) publishes nothing.
struct TransferObs {
  Actor actor{};     // the issuing timeline
  MemRange read{};   // source bytes the transfer reads (optional)
  MemRange write{};  // destination bytes the transfer writes (optional)
  /// True for operations whose completion the issuer observes directly
  /// (host/stream copies, a kernel's blocking peer stores): delivery joins
  /// the wire clock back into the issuer. False for NVSHMEM-style puts: the
  /// issuer learns of completion only through quiet() or a delivered signal.
  bool rejoin = true;
};

/// Event sink. All callbacks default to no-ops; implementations override the
/// subset they need. Callbacks run synchronously at publication sites and
/// must not re-enter the engine.
class Observer {
 public:
  virtual ~Observer() = default;

  // --- naming (attribution only; no ordering effect) ---
  virtual void on_mem_block(const void* base, std::size_t bytes,
                            std::string_view name) {
    (void)base, (void)bytes, (void)name;
  }
  virtual void on_flag_name(const void* flag, std::string_view name) {
    (void)flag, (void)name;
  }
  /// The memory block, flag or barrier at `base` is being freed (published
  /// through Engine::forget). Drop everything keyed by that address: an
  /// object allocated there later is a new object with no history.
  virtual void on_mem_release(const void* base) { (void)base; }

  // --- actor lifecycle ---
  virtual void on_actor_begin(const Actor& actor, const Actor& parent,
                              std::string_view name) {
    (void)actor, (void)parent, (void)name;
  }
  virtual void on_actor_end(const Actor& actor, const Actor& parent) {
    (void)actor, (void)parent;
  }

  // --- stream FIFO order ---
  virtual void on_stream_enqueue(const Actor& enqueuer, const Actor& stream,
                                 std::int64_t ticket) {
    (void)enqueuer, (void)stream, (void)ticket;
  }
  virtual void on_stream_op_begin(const Actor& stream, std::int64_t ticket) {
    (void)stream, (void)ticket;
  }
  virtual void on_stream_op_end(const Actor& stream, std::int64_t ticket) {
    (void)stream, (void)ticket;
  }
  virtual void on_stream_sync(const Actor& waiter, const Actor& stream) {
    (void)waiter, (void)stream;
  }

  // --- barriers (keyed by the barrier object's address) ---
  virtual void on_barrier_arrive(const Actor& actor, const void* key,
                                 std::size_t parties, std::string_view what) {
    (void)actor, (void)key, (void)parties, (void)what;
  }
  virtual void on_barrier_resume(const Actor& actor, const void* key) {
    (void)actor, (void)key;
  }

  // --- signals/flags (keyed by the Flag object's address) ---
  virtual void on_signal_update(const Actor& actor, const void* flag,
                                std::int64_t value, std::string_view what) {
    (void)actor, (void)flag, (void)value, (void)what;
  }
  virtual void on_signal_wait_begin(const Actor& actor, const void* flag,
                                    Cmp cmp, std::int64_t rhs,
                                    std::string_view what) {
    (void)actor, (void)flag, (void)cmp, (void)rhs, (void)what;
  }
  virtual void on_signal_wait_end(const Actor& actor, const void* flag) {
    (void)actor, (void)flag;
  }

  // --- transfers (puts, gets, copies; op_id pairs issue with delivery) ---
  virtual void on_put_issue(std::uint64_t op_id, const Actor& issuer,
                            const Actor& wire, const MemRange& read,
                            const MemRange& write, bool rejoin,
                            std::string_view what) {
    (void)op_id, (void)issuer, (void)wire, (void)read, (void)write,
        (void)rejoin, (void)what;
  }
  virtual void on_put_deliver(std::uint64_t op_id, const Actor& wire) {
    (void)op_id, (void)wire;
  }
  /// quiet() completion point for `actor`'s outstanding nonblocking puts
  /// issued from PE `pe`. `what` names the operation ("quiet").
  virtual void on_quiet(const Actor& actor, int pe, std::string_view what) {
    (void)actor, (void)pe, (void)what;
  }

  // --- link occupancy (topology ledger; timing-neutral bookkeeping) ---
  /// A transfer (`flight`, the ledger's admission id) started occupying
  /// `link`; `concurrent` counts flights now on the link (including this
  /// one) and `queued_ns` is how long the transfer waited behind earlier
  /// traffic before its wire time began.
  virtual void on_link_busy(std::uint64_t flight, std::string_view link,
                            int concurrent, Nanos queued_ns,
                            std::string_view what) {
    (void)flight, (void)link, (void)concurrent, (void)queued_ns, (void)what;
  }
  /// Flight `flight` released `link`; `concurrent` counts flights remaining.
  virtual void on_link_release(std::uint64_t flight, std::string_view link,
                               int concurrent) {
    (void)flight, (void)link, (void)concurrent;
  }

  // --- application memory accesses (halo-region granularity) ---
  virtual void on_access(const Actor& actor, const MemRange& range,
                         bool is_write, std::string_view what) {
    (void)actor, (void)range, (void)is_write, (void)what;
  }

  // --- fault injection (src/fault/) ---
  /// A seeded fault fired at `actor`'s site: `kind` is the fault::Site name
  /// ("link-degrade", "signal-lost", "put-drop", ...) and `what` the
  /// site-local description. Purely informational: the schedule never
  /// consults the observer, so attaching one cannot change decisions.
  virtual void on_fault(const Actor& actor, std::string_view kind,
                        std::string_view what) {
    (void)actor, (void)kind, (void)what;
  }
  /// A timed signal wait (watchdog) expired before its predicate held. The
  /// waiter is no longer blocked on `flag`; it proceeds to recovery.
  virtual void on_signal_wait_timeout(const Actor& actor, const void* flag,
                                      std::string_view what) {
    (void)actor, (void)flag, (void)what;
  }

  // --- terminal diagnosis ---
  /// Published by Engine::run() immediately before throwing DeadlockError.
  virtual void on_deadlock(std::size_t stuck_tasks) { (void)stuck_tasks; }
};

}  // namespace sim
