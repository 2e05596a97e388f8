#include "workloads/histogram/histogram.hpp"

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cpufree/halo.hpp"
#include "exec/launch.hpp"
#include "exec/program.hpp"
#include "exec/sync.hpp"
#include "sim/memo.hpp"
#include "sim/observe.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"

namespace workloads {

namespace {

// Streaming traffic per element of each histogram phase.
constexpr double kKeyBytes = 24.0;    // read key, read+update a privatized bin
constexpr double kMergeBytes = 16.0;  // read a partial slot, rmw the bin
constexpr double kKeygenBytes = 8.0;  // generate/stage one key

/// Owner partition of the global bins (the stencil slab split: even base,
/// remainder to the low owners — so skewed key streams hit owner 0 both
/// with more bins AND with the hot low-bin mass).
struct BinPartition {
  std::vector<std::size_t> start;
  std::vector<std::size_t> count;
  std::size_t stride = 0;  // max count: the symmetric transfer-row pitch
};

BinPartition split_bins(std::size_t bins, int ranks) {
  BinPartition part;
  const std::size_t base = bins / static_cast<std::size_t>(ranks);
  const std::size_t rem = bins % static_cast<std::size_t>(ranks);
  std::size_t off = 0;
  for (int r = 0; r < ranks; ++r) {
    const std::size_t c = base + (static_cast<std::size_t>(r) < rem ? 1 : 0);
    part.start.push_back(off);
    part.count.push_back(c);
    part.stride = std::max(part.stride, c);
    off += c;
  }
  return part;
}

/// The owner of `bin`: the count of owners after the first whose slice
/// starts at or below it. Exact, because empty owners only trail, at
/// start == bins. Counting has no branch on the key, where a scan that
/// stops at the owner mispredicts its exit.
int owner_of(const BinPartition& part, std::size_t bin) {
  int o = 0;
  for (std::size_t k = 1; k < part.start.size(); ++k) {
    o += part.start[k] <= bin ? 1 : 0;
  }
  return o;
}

/// The slice of `owner`'s bins that `source`'s round-`round` keys touch, as
/// owner-local slot bounds. This is the data-dependent geometry of one
/// (source, owner, round) edge: which slots travel, what the checker sees,
/// and how much merge work the owner pays all derive from it. Any PE can
/// evaluate it for any other PE (counter-based key streams).
struct Touched {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool any = false;
  std::size_t keys = 0;  // the source's keys that land in the slice

  [[nodiscard]] std::size_t slots() const { return any ? hi - lo + 1 : 0; }
};

/// Every (round, source, owner) edge of one run — rounds x ranks^2 of
/// them — derived in one pass over each (round, source) key stream.
struct EdgeTable {
  std::size_t n = 0;
  std::vector<Touched> edges;

  [[nodiscard]] std::size_t index(int round, int source, int owner) const {
    return (static_cast<std::size_t>(round - 1) * n +
            static_cast<std::size_t>(source)) *
               n +
           static_cast<std::size_t>(owner);
  }
  [[nodiscard]] const Touched& at(int round, int source, int owner) const {
    return edges[index(round, source, owner)];
  }
};

EdgeTable build_edges(const HistogramConfig& cfg, const BinPartition& part,
                      int ranks) {
  EdgeTable tab;
  tab.n = static_cast<std::size_t>(ranks);
  tab.edges.resize(static_cast<std::size_t>(std::max(cfg.rounds, 0)) *
                   tab.n * tab.n);
  for (int t = 1; t <= cfg.rounds; ++t) {
    for (int s = 0; s < ranks; ++s) {
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        const std::size_t bin = histogram_key_bin(cfg, s, t, i);
        const int o = owner_of(part, bin);
        const std::size_t slot =
            bin - part.start[static_cast<std::size_t>(o)];
        Touched& tr = tab.edges[tab.index(t, s, o)];
        if (!tr.any) {
          tr.lo = tr.hi = slot;
          tr.any = true;
        } else {
          tr.lo = std::min(tr.lo, slot);
          tr.hi = std::max(tr.hi, slot);
        }
        ++tr.keys;
      }
    }
  }
  return tab;
}

/// Exactly the config fields the key streams and the owner split read,
/// plus the rank count: keys both the reference and the edge table.
struct ReferenceKey {
  std::size_t bins;
  std::size_t keys_per_round;
  int rounds;
  int skew;
  std::uint64_t seed;
  int ranks;

  auto operator<=>(const ReferenceKey&) const = default;
};

ReferenceKey reference_key(const HistogramConfig& cfg, int ranks) {
  return {cfg.bins, cfg.keys_per_round, cfg.rounds, cfg.skew, cfg.seed, ranks};
}

/// Rebuilt from the key alone: a field the computation reads but the key
/// lacks takes its default here for every caller, rather than whichever
/// caller's value came first (memo_test checks each keyed field against
/// tallies that never read a memo).
HistogramConfig keyed_config(const ReferenceKey& key) {
  HistogramConfig keyed;
  keyed.bins = key.bins;
  keyed.keys_per_round = key.keys_per_round;
  keyed.rounds = key.rounds;
  keyed.skew = key.skew;
  keyed.seed = key.seed;
  return keyed;
}

/// The edge table of `cfg` over `ranks`: built once per process for each
/// key, shared read-only by every core, the reference and the imbalance tag.
std::shared_ptr<const EdgeTable> shared_edges(const HistogramConfig& cfg,
                                              int ranks) {
  static sim::Memo<ReferenceKey, std::shared_ptr<const EdgeTable>> memo;
  const ReferenceKey key = reference_key(cfg, ranks);
  return memo.get(key, [&key] {
    const HistogramConfig keyed = keyed_config(key);
    return std::make_shared<const EdgeTable>(
        build_edges(keyed, split_bins(keyed.bins, key.ranks), key.ranks));
  });
}

/// Max per-owner key updates over the run / mean (1.0 = perfectly
/// balanced).
double imbalance_of(const EdgeTable& tab) {
  std::vector<double> updates(tab.n, 0.0);
  for (std::size_t e = 0; e < tab.edges.size(); ++e) {
    updates[e % tab.n] += static_cast<double>(tab.edges[e].keys);
  }
  double total = 0.0, peak = 0.0;
  for (double u : updates) {
    total += u;
    peak = std::max(peak, u);
  }
  const double mean = total / static_cast<double>(tab.n);
  return mean > 0.0 ? peak / mean : 1.0;
}

/// Everything the histogram bodies dereference, heap-held so an
/// externally-driven job (HistogramCpufreeJob) can outlive the building
/// frame. Symmetric layout:
///   bins — my owned slice, [0, count[me])
///   xfer — 2n rows of `stride`: row o in [0,n) is MY partial destined for
///          owner o; row n+s is my INBOX from source s.
///   sig  — 2n flags: [0,n) "round ready from source s" (set at the owner),
///          [n,2n) "round consumed by owner o" (the ack, set at the source).
struct HistCore {
  HistogramConfig cfg;
  vshmem::World* world = nullptr;
  int n = 0;
  BinPartition part;
  std::shared_ptr<const EdgeTable> edges;
  vshmem::Sym<double> bins, xfer;
  std::unique_ptr<vshmem::SignalSet> sig;
};

std::unique_ptr<HistCore> make_hist_core(vshmem::World& world,
                                         const HistogramConfig& cfg) {
  auto core = std::make_unique<HistCore>();
  core->cfg = cfg;
  core->world = &world;
  core->n = world.n_pes();
  core->part = split_bins(cfg.bins, core->n);
  core->edges = shared_edges(cfg, core->n);
  core->bins = world.alloc<double>(core->part.stride, "hist_bins");
  core->xfer = world.alloc<double>(
      2 * static_cast<std::size_t>(core->n) * core->part.stride, "hist_xfer");
  // No presets: the round-1 ack wait is `>= 0`, trivially satisfied.
  core->sig = world.alloc_signals(2 * static_cast<std::size_t>(core->n));
  return core;
}

std::size_t row_off(HistCore& core, std::size_t row) {
  return row * core.part.stride;
}

/// Functional numerics of the local phase: zero my partial rows, then fold
/// the round's keys in stream order (each key touches exactly one row, so
/// per-row order — and hence every downstream sum — is bitwise stable).
/// `remote_only`/`self_only` carve the phase for the overlap composition.
void accumulate_partials(HistCore& core, int me, int t, bool remote_only,
                         bool self_only) {
  const HistogramConfig& cfg = core.cfg;
  auto rows = core.xfer.on(me);
  for (int o = 0; o < core.n; ++o) {
    if ((remote_only && o == me) || (self_only && o != me)) continue;
    auto row = rows.subspan(row_off(core, static_cast<std::size_t>(o)),
                            core.part.count[static_cast<std::size_t>(o)]);
    std::fill(row.begin(), row.end(), 0.0);
  }
  double* const out = rows.data();
  const std::size_t* const start = core.part.start.data();
  const std::size_t stride = core.part.stride;
  // Skipped keys keep their branch: routing them into one discard slot
  // would serialise them through that slot's adds.
  const bool filtered = remote_only || self_only;
  for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
    const std::size_t bin = histogram_key_bin(cfg, me, t, i);
    const int o = owner_of(core.part, bin);
    if (filtered && ((remote_only && o == me) || (self_only && o != me))) {
      continue;
    }
    const auto uo = static_cast<std::size_t>(o);
    out[uo * stride + bin - start[uo]] += histogram_key_weight(cfg, me, t, i);
  }
}

/// Functional numerics of the merge phase: fold my own partial row plus
/// every inbox row into my bin slice, in fixed source order over each
/// source's touched slots — bitwise-deterministic regardless of put
/// arrival order.
void merge_round(HistCore& core, int me, int t) {
  auto rows = core.xfer.on(me);
  auto my_bins = core.bins.on(me);
  for (int s = 0; s < core.n; ++s) {
    const Touched& tr = core.edges->at(t, s, me);
    if (!tr.any) continue;
    const std::size_t row =
        s == me ? static_cast<std::size_t>(me)
                : static_cast<std::size_t>(core.n + s);
    for (std::size_t slot = tr.lo; slot <= tr.hi; ++slot) {
      my_bins[slot] += rows[row_off(core, row) + slot];
    }
  }
}

/// Owner-side merge traffic of round `t` (data-dependent: only touched
/// slots are read and folded).
double merge_bytes(HistCore& core, int me, int t) {
  double slots = 0.0;
  for (int s = 0; s < core.n; ++s) {
    slots += static_cast<double>(core.edges->at(t, s, me).slots());
  }
  return slots * kMergeBytes;
}

/// Publishes the local phase's partial-row writes (touched slots only).
void observe_partial_writes(HistCore& core, vgpu::KernelCtx& k, int me,
                            int t, bool remote_only, bool self_only) {
  for (int o = 0; o < core.n; ++o) {
    if ((remote_only && o == me) || (self_only && o != me)) continue;
    const Touched& tr = core.edges->at(t, me, o);
    if (!tr.any) continue;
    k.obs_access(
        sim::MemRange::of(core.xfer.on(me),
                          row_off(core, static_cast<std::size_t>(o)) + tr.lo,
                          tr.slots()),
        /*is_write=*/true, "hist_partial_write");
  }
}

/// Publishes the merge phase's inbox reads and bin writes. Only safe once
/// every source's round is ready (the caller sequences this after the
/// waits/barrier), so a protocol that skips an edge is flagged.
void observe_merge(HistCore& core, vgpu::KernelCtx& k, int me, int t) {
  Touched un;
  for (int s = 0; s < core.n; ++s) {
    const Touched& tr = core.edges->at(t, s, me);
    if (!tr.any) continue;
    const std::size_t row =
        s == me ? static_cast<std::size_t>(me)
                : static_cast<std::size_t>(core.n + s);
    k.obs_access(sim::MemRange::of(core.xfer.on(me),
                                   row_off(core, row) + tr.lo, tr.slots()),
                 /*is_write=*/false, "hist_inbox_read");
    if (!un.any) {
      un = tr;
    } else {
      un.lo = std::min(un.lo, tr.lo);
      un.hi = std::max(un.hi, tr.hi);
    }
  }
  if (un.any) {
    k.obs_access(sim::MemRange::of(core.bins.on(me), un.lo, un.slots()),
                 /*is_write=*/true, "hist_bin_update");
  }
}

/// Host-staged flush of every non-empty partial row to its owner, in owner
/// order, with data-dependent sizes and checker ranges.
sim::Task flush_rows_staged(HistCore& core, vgpu::HostCtx& h,
                            vgpu::Stream& stream, int dev, int t) {
  vshmem::World& w = *core.world;
  for (int o = 0; o < core.n; ++o) {
    if (o == dev) continue;
    const Touched& tr = core.edges->at(t, dev, o);
    if (!tr.any) continue;
    const std::size_t src =
        row_off(core, static_cast<std::size_t>(o)) + tr.lo;
    const std::size_t dst =
        row_off(core, static_cast<std::size_t>(core.n + dev)) + tr.lo;
    std::function<void()> deliver;
    if (core.cfg.functional) {
      deliver = [&core, dev, o, src, dst, slots = tr.slots()] {
        auto s = core.xfer.on(dev).subspan(src, slots);
        auto d = core.xfer.on(o).subspan(dst, slots);
        std::copy(s.begin(), s.end(), d.begin());
      };
    }
    sim::MemRange rd, wr;
    if (h.machine().engine().observer() != nullptr) {
      rd = sim::MemRange::of(core.xfer.on(dev), src, tr.slots());
      wr = sim::MemRange::of(core.xfer.on(o), dst, tr.slots());
    }
    CO_AWAIT(h.memcpy_peer_async(stream, w.device_of(o), w.device_of(dev),
                                 static_cast<double>(tr.slots()) * 8.0,
                                 "hist_flush", std::move(deliver), rd, wr));
  }
}

/// The merge kernel every host-driven composition launches once the round's
/// contributions are on-device (barrier- or signal-paced by the caller).
sim::Task launch_merge_kernel(HistCore& core, vgpu::HostCtx& h,
                              vgpu::Stream& stream, int dev, int t) {
  std::function<void()> fnl;
  if (core.cfg.functional) {
    fnl = [&core, dev, t] { merge_round(core, dev, t); };
  }
  return exec::launch_compute(
      h, stream, "hist_merge", "hist_merge", merge_bytes(core, dev, t),
      std::move(fnl),
      [&core, dev, t](vgpu::KernelCtx& k) { observe_merge(core, k, dev, t); });
}

/// (kHostLoop, kStagedCopy, kHostBarrier) step: local kernel, host-staged
/// row copies, barrier, merge kernel, barrier.
sim::Task staged_step(HistCore& core, const exec::Plan& plan,
                      vgpu::HostCtx& h, int dev, int t,
                      vgpu::Stream& stream) {
  std::function<void()> fnl;
  if (core.cfg.functional) {
    fnl = [&core, dev, t] { accumulate_partials(core, dev, t, false, false); };
  }
  CO_AWAIT(exec::launch_compute(
      h, stream, plan.kernel_name, "hist_local",
      static_cast<double>(core.cfg.keys_per_round) * kKeyBytes, std::move(fnl),
      [&core, dev, t](vgpu::KernelCtx& k) {
        observe_partial_writes(core, k, dev, t, false, false);
      }));
  CO_AWAIT(flush_rows_staged(core, h, stream, dev, t));
  vgpu::Stream* const streams[] = {&stream};
  // Fence every PE's flushes before any owner merges...
  co_await exec::end_host_step(h, plan.sync, streams);
  CO_AWAIT(launch_merge_kernel(core, h, stream, dev, t));
  // ...and every merge before the next round rewrites the partial rows.
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kOverlapStreams, kHostBarrier) step: the remote-owner share
/// of the local phase + flush copies in the comm stream, overlapped with
/// the self-owned share in the comp stream.
sim::Task overlap_step(HistCore& core, const exec::Plan& plan,
                       vgpu::HostCtx& h, int dev, int t, vgpu::Stream& comp_s,
                       vgpu::Stream& comm_s) {
  // Keys bound for remote owners size the comm kernel's share.
  const std::size_t remote =
      core.cfg.keys_per_round - core.edges->at(t, dev, dev).keys;
  const std::size_t self = core.cfg.keys_per_round - remote;
  std::function<void()> fnl_remote, fnl_self;
  if (core.cfg.functional) {
    fnl_remote = [&core, dev, t] {
      accumulate_partials(core, dev, t, /*remote_only=*/true, false);
    };
    fnl_self = [&core, dev, t] {
      accumulate_partials(core, dev, t, false, /*self_only=*/true);
    };
  }
  CO_AWAIT(exec::launch_compute(
      h, comm_s, "hist_remote", "hist_remote",
      static_cast<double>(remote) * kKeyBytes, std::move(fnl_remote),
      [&core, dev, t](vgpu::KernelCtx& k) {
        observe_partial_writes(core, k, dev, t, /*remote_only=*/true, false);
      }));
  CO_AWAIT(exec::launch_compute(
      h, comp_s, "hist_self", "hist_self",
      static_cast<double>(self) * kKeyBytes, std::move(fnl_self),
      [&core, dev, t](vgpu::KernelCtx& k) {
        observe_partial_writes(core, k, dev, t, false, /*self_only=*/true);
      }));

  CO_AWAIT(flush_rows_staged(core, h, comm_s, dev, t));
  vgpu::Stream* const streams[] = {&comm_s, &comp_s};
  co_await exec::end_host_step(h, plan.sync, streams);
  CO_AWAIT(launch_merge_kernel(core, h, comp_s, dev, t));
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// (kHostLoop, kPeerStore, kHostBarrier) step: one kernel accumulates and
/// peer-stores the rows straight into the owners' inboxes.
sim::Task peer_store_step(HistCore& core, const exec::Plan& plan,
                          vgpu::HostCtx& h, int dev, int t,
                          vgpu::Stream& stream) {
  vshmem::World& w = *core.world;
  std::function<void()> fnl;
  if (core.cfg.functional) {
    fnl = [&core, dev, t] { accumulate_partials(core, dev, t, false, false); };
  }
  auto body = [&core, &w, dev, t,
               fnl = std::move(fnl)](vgpu::KernelCtx& k) -> sim::Task {
    if (k.engine().observer() != nullptr) {
      observe_partial_writes(core, k, dev, t, false, false);
    }
    std::function<void()> f = fnl;
    co_await k.compute(
        static_cast<double>(core.cfg.keys_per_round) * kKeyBytes, 1.0,
        "hist_local", std::move(f));
    for (int o = 0; o < core.n; ++o) {
      if (o == dev) continue;
      const Touched& tr = core.edges->at(t, dev, o);
      if (!tr.any) continue;
      const std::size_t src =
          row_off(core, static_cast<std::size_t>(o)) + tr.lo;
      const std::size_t dst =
          row_off(core, static_cast<std::size_t>(core.n + dev)) + tr.lo;
      std::function<void()> deliver;
      if (core.cfg.functional) {
        deliver = [&core, dev, o, src, dst, slots = tr.slots()] {
          auto s = core.xfer.on(dev).subspan(src, slots);
          auto d = core.xfer.on(o).subspan(dst, slots);
          std::copy(s.begin(), s.end(), d.begin());
        };
      }
      sim::MemRange rd, wr;
      if (k.engine().observer() != nullptr) {
        rd = sim::MemRange::of(core.xfer.on(dev), src, tr.slots());
        wr = sim::MemRange::of(core.xfer.on(o), dst, tr.slots());
      }
      CO_AWAIT(k.peer_put(w.device_of(o),
                          static_cast<double>(tr.slots()) * 8.0, "hist_p2p",
                          std::move(deliver), rd, wr));
    }
  };
  CO_AWAIT(h.launch_single(stream, plan.kernel_name, std::move(body)));
  vgpu::Stream* const streams[] = {&stream};
  co_await exec::end_host_step(h, plan.sync, streams);
  CO_AWAIT(launch_merge_kernel(core, h, stream, dev, t));
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// The signaled aggregation round shared by the host-signaled and both
/// persistent compositions: ack-gated local accumulation, contended
/// signaled puts to the owners, source-ordered merge, acks. Split in two
/// device phases so the host-loop variant can launch them as two kernels.
sim::Task signaled_local_phase(HistCore& core, vgpu::KernelCtx& k,
                               int dev, int t, double bw_share) {
  vshmem::World& w = *core.world;
  cpufree::IterationProtocol proto(w, *core.sig);
  // Flow control FIRST: owner o's ack of round t-1 guarantees the round-t
  // rewrite below cannot race the still-in-flight round-(t-1) put payload.
  for (int o = 0; o < core.n; ++o) {
    if (o == dev) continue;
    co_await proto.wait_iteration(
        k, static_cast<std::size_t>(core.n + o), t - 1);
  }
  if (k.engine().observer() != nullptr) {
    observe_partial_writes(core, k, dev, t, false, false);
  }
  std::function<void()> fnl;
  if (core.cfg.functional) {
    fnl = [&core, dev, t] { accumulate_partials(core, dev, t, false, false); };
  }
  co_await k.compute(static_cast<double>(core.cfg.keys_per_round) * kKeyBytes,
                     bw_share, "hist_local", std::move(fnl));
  // Contended signaled puts: every PE pushes its row to the same hot owner
  // in the same round window. An empty contribution still signals (the
  // owner's merge wait must see every source).
  for (int o = 0; o < core.n; ++o) {
    if (o == dev) continue;
    const Touched& tr = core.edges->at(t, dev, o);
    if (tr.any) {
      co_await proto.put_and_signal(
          k, core.xfer, row_off(core, static_cast<std::size_t>(o)) + tr.lo,
          row_off(core, static_cast<std::size_t>(core.n + dev)) + tr.lo,
          tr.slots(), static_cast<std::size_t>(dev), t, o);
    } else {
      co_await proto.signal_only(k, static_cast<std::size_t>(dev), t, o);
    }
  }
}

sim::Task signaled_merge_phase(HistCore& core, vgpu::KernelCtx& k,
                               int dev, int t, double bw_share) {
  vshmem::World& w = *core.world;
  cpufree::IterationProtocol proto(w, *core.sig);
  for (int s = 0; s < core.n; ++s) {
    if (s == dev) continue;
    co_await proto.wait_iteration(k, static_cast<std::size_t>(s), t);
  }
  // The inbox reads are only safe after those waits: publish here so a
  // protocol that skips an edge is flagged.
  if (k.engine().observer() != nullptr) observe_merge(core, k, dev, t);
  std::function<void()> fnl;
  if (core.cfg.functional) {
    fnl = [&core, dev, t] { merge_round(core, dev, t); };
  }
  co_await k.compute(merge_bytes(core, dev, t), bw_share, "hist_merge",
                     std::move(fnl));
  // Release every source for the next round.
  for (int s = 0; s < core.n; ++s) {
    if (s == dev) continue;
    co_await proto.signal_only(
        k, static_cast<std::size_t>(core.n + dev), t, s);
  }
}

/// (kHostLoop, kSignaledPut, kStreamSync) step: the two device phases as
/// host-launched kernels; no host barrier (the signals pace the rounds).
sim::Task signaled_step(HistCore& core, const exec::Plan& plan,
                        vgpu::HostCtx& h, int dev, int t,
                        vgpu::Stream& stream) {
  vshmem::World& w = *core.world;
  auto local_body = [&core, dev, t](vgpu::KernelCtx& k) -> sim::Task {
    co_await signaled_local_phase(core, k, dev, t, 1.0);
  };
  CO_AWAIT(h.launch_single(stream, plan.kernel_name, std::move(local_body)));
  auto merge_body = [&core, &w, dev, t](vgpu::KernelCtx& k) -> sim::Task {
    co_await signaled_merge_phase(core, k, dev, t, 1.0);
    co_await w.quiet(k);
  };
  CO_AWAIT(h.launch_single(stream, "hist_merge", std::move(merge_body)));
  vgpu::Stream* const streams[] = {&stream};
  co_await exec::end_host_step(h, plan.sync, streams);
}

/// PE `dev`'s persistent groups: the comm group runs the whole signaled
/// aggregation round; the inner group models the key-generation stage the
/// futhark benchmarks pipeline alongside it.
exec::ProgramGroups build_hist_groups(HistCore& core, int dev,
                                      const exec::IterationJoin& join) {
  vgpu::Machine& m = core.world->machine();
  const int pb = exec::resolve_persistent_blocks(
      core.cfg.persistent_blocks, m.spec(), core.cfg.threads_per_block);
  const int comm_blocks = std::max(1, pb / 2);
  const int inner_blocks = std::max(1, pb - comm_blocks);
  const vgpu::DeviceSpec& dev_spec =
      m.device(core.world->device_of(dev)).spec();
  const double cshare =
      dev_spec.bw_share(comm_blocks, comm_blocks + inner_blocks);
  const double ishare =
      dev_spec.bw_share(inner_blocks, comm_blocks + inner_blocks);

  const int rounds = core.cfg.rounds;
  auto comm_body = [&core, dev, rounds, cshare,
                    comm_end = join.comm_end](
                       vgpu::KernelCtx& k) -> sim::Task {
    for (int t = 1; t <= rounds; ++t) {
      co_await signaled_local_phase(core, k, dev, t, cshare);
      co_await signaled_merge_phase(core, k, dev, t, cshare);
      CO_AWAIT(comm_end(k, /*lead=*/true, t));
    }
  };
  auto inner_body = [&core, rounds, ishare, inner_end = join.inner_end](
                        vgpu::KernelCtx& k) -> sim::Task {
    for (int t = 1; t <= rounds; ++t) {
      co_await k.compute(
          static_cast<double>(core.cfg.keys_per_round) * kKeygenBytes, ishare,
          "hist_keygen", {});
      CO_AWAIT(inner_end(k, t));
    }
  };

  exec::ProgramGroups pg;
  pg.comm.push_back(
      vgpu::BlockGroup{"hist", comm_blocks, std::move(comm_body)});
  pg.inner.push_back(
      vgpu::BlockGroup{"hist_keygen", inner_blocks, std::move(inner_body)});
  return pg;
}

/// Wraps the histogram core as an exec::Program built for `plan`. The core
/// owns its signals (they must outlive externally-driven jobs), and every
/// body reaches the SignalSet through the core.
exec::Program make_hist_program(HistCore& core, const exec::Plan& plan) {
  exec::Program prog{.world = core.world,
                     .plan = plan,
                     .iterations = core.cfg.rounds,
                     .threads_per_block = core.cfg.threads_per_block};
  prog.host_step = [&core, plan](vgpu::HostCtx& h, int dev, int t,
                                 std::span<vgpu::Stream* const> streams) {
    switch (plan.comm) {
      case exec::CommPolicy::kStagedCopy:
        return staged_step(core, plan, h, dev, t, *streams[0]);
      case exec::CommPolicy::kOverlapStreams:
        return overlap_step(core, plan, h, dev, t, *streams[0], *streams[1]);
      case exec::CommPolicy::kPeerStore:
        return peer_store_step(core, plan, h, dev, t, *streams[0]);
      case exec::CommPolicy::kSignaledPut:
        break;
    }
    return signaled_step(core, plan, h, dev, t, *streams[0]);
  };
  prog.groups = [&core](int dev, const exec::IterationJoin& join) {
    return build_hist_groups(core, dev, join);
  };
  return prog;
}

std::vector<double> gather(HistCore& core) {
  std::vector<double> out(core.cfg.bins, 0.0);
  for (int o = 0; o < core.n; ++o) {
    auto slice = core.bins.on(o);
    for (std::size_t b = 0; b < core.part.count[static_cast<std::size_t>(o)];
         ++b) {
      out[core.part.start[static_cast<std::size_t>(o)] + b] = slice[b];
    }
  }
  return out;
}

/// histogram_reference without the memo.
std::vector<double> reference_uncached(const HistogramConfig& cfg,
                                       int ranks) {
  const BinPartition part = split_bins(cfg.bins, ranks);
  const auto edges = shared_edges(cfg, ranks);
  std::vector<double> bins(cfg.bins, 0.0);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ranks));
  for (int t = 1; t <= cfg.rounds; ++t) {
    // Each source folds its keys in stream order (matches the device's
    // per-row accumulation: rows are disjoint global slots).
    for (int s = 0; s < ranks; ++s) {
      auto& p = partial[static_cast<std::size_t>(s)];
      p.assign(cfg.bins, 0.0);
      for (std::size_t i = 0; i < cfg.keys_per_round; ++i) {
        p[histogram_key_bin(cfg, s, t, i)] +=
            histogram_key_weight(cfg, s, t, i);
      }
    }
    // Each owner folds the sources in fixed order over their touched slots
    // — the same reduction the distributed merge performs.
    for (int o = 0; o < ranks; ++o) {
      const std::size_t start = part.start[static_cast<std::size_t>(o)];
      for (int s = 0; s < ranks; ++s) {
        const Touched& tr = edges->at(t, s, o);
        if (!tr.any) continue;
        for (std::size_t slot = tr.lo; slot <= tr.hi; ++slot) {
          bins[start + slot] +=
              partial[static_cast<std::size_t>(s)][start + slot];
        }
      }
    }
  }
  return bins;
}

}  // namespace

std::vector<double> histogram_reference(const HistogramConfig& cfg,
                                        int ranks) {
  static sim::Memo<ReferenceKey, std::vector<double>> memo;
  const ReferenceKey key = reference_key(cfg, ranks);
  return memo.get(key, [&key] {
    return reference_uncached(keyed_config(key), key.ranks);
  });
}

double histogram_imbalance(const HistogramConfig& cfg, int ranks) {
  return imbalance_of(*shared_edges(cfg, ranks));
}

HistogramResult run_histogram(const vgpu::MachineSpec& spec,
                              const HistogramConfig& cfg,
                              const exec::Plan& plan) {
  vgpu::Machine machine(spec);
  return run_histogram(machine, cfg, plan);
}

HistogramResult run_histogram(vgpu::Machine& machine,
                              const HistogramConfig& cfg,
                              const exec::Plan& plan) {
  machine.engine().set_observer(cfg.observer);
  vshmem::World world(machine);
  world.set_functional(cfg.functional);
  machine.trace().set_enabled(cfg.trace);
  auto core = make_hist_core(world, cfg);
  exec::run_program(make_hist_program(*core, plan));

  HistogramResult res;
  res.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                     cfg.rounds);
  cpufree::apply_fault_stats(res.metrics, machine.faults().stats());
  if (cfg.functional) res.bins = gather(*core);
  res.imbalance = imbalance_of(*core->edges);
  return res;
}

// --- Externally-driven histogram job (multi-tenant serve) ---------------------

struct HistogramCpufreeJob::Impl {
  std::unique_ptr<HistCore> core;
  exec::Program program;
};

HistogramCpufreeJob::HistogramCpufreeJob(vshmem::World& world,
                                         const HistogramConfig& config)
    : impl_(std::make_unique<Impl>()) {
  exec::check_mode("HistogramCpufreeJob", config, world);
  impl_->core = make_hist_core(world, config);
  impl_->program = make_hist_program(
      *impl_->core,
      {exec::LaunchPolicy::kPersistent, exec::CommPolicy::kSignaledPut,
       exec::SyncPolicy::kIterationFlags, "hist_cpufree"});
}

HistogramCpufreeJob::~HistogramCpufreeJob() = default;

sim::Task HistogramCpufreeJob::task() {
  // A member, not a temporary: the lazy coroutine keeps its const&
  // parameter alive only as a reference.
  return exec::run_program_persistent_task(impl_->program);
}

std::vector<double> HistogramCpufreeJob::gather_bins() const {
  return gather(*impl_->core);
}

double HistogramCpufreeJob::imbalance() const {
  return imbalance_of(*impl_->core->edges);
}

}  // namespace workloads
