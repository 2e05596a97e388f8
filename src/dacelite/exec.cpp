#include "dacelite/exec.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cpufree/halo.hpp"
#include "cpufree/perks.hpp"
#include "dacelite/transforms.hpp"
#include "exec/launch.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"

namespace dacelite {

namespace {

int resolve_iterations(const Sdfg& sdfg, const ExecOptions& o) {
  return o.iterations > 0 ? o.iterations : sdfg.default_iterations;
}

/// The arrays ProgramData allocated decide whether the numerics run, so an
/// ExecOptions::functional that disagrees would be silently ignored: `fn`
/// rejects it, naming both values.
void check_mode(std::string_view fn, const ExecOptions& options,
                const ProgramData& data) {
  if (options.functional == data.functional()) return;
  std::string msg(fn);
  msg += ": ExecOptions::functional is ";
  msg += options.functional ? "true" : "false";
  msg += " but the ProgramData was built with functional ";
  msg += data.functional() ? "true" : "false";
  throw std::invalid_argument(msg);
}

/// The SDFG's arrays and signals live in the ProgramData's World, so every
/// backend runs there: `fn` rejects a machine, or a World (when given), that
/// is not the ProgramData's.
void check_world(std::string_view fn, const vgpu::Machine& machine,
                 const vshmem::World* world, ProgramData& data) {
  std::string msg(fn);
  if (world != nullptr && world != &data.world()) {
    msg += ": the World is not the ProgramData's World";
  } else if (&machine != &data.world().machine()) {
    msg += ": the machine is not the ProgramData's World's machine";
  } else {
    return;
  }
  throw std::invalid_argument(msg);
}

}  // namespace

ExecOptions exec_options(const Recipe& recipe) {
  ExecOptions o;
  o.threads_per_block = recipe.threads_per_block;
  o.persistent_blocks = recipe.persistent_blocks;
  o.expansion = recipe.expansion;
  return o;
}

std::string describe_put_expansions(const Sdfg& sdfg,
                                    const ExecOptions& options, int size) {
  // A node guarded off for every rank generates no code: skip it so e.g. a
  // 1 x N partition (east/west nodes present but never active) audits as
  // contiguous-only. size <= 0 keeps the purely static view.
  const auto generated = [size](const LibraryNode& lib) {
    if (size <= 0) return true;
    for (int rank = 0; rank < size; ++rank) {
      if (lib.active(rank, size)) return true;
    }
    return false;
  };
  std::set<std::string> labels;
  for (const State& st : sdfg.body) {
    for (const Node& n : st.nodes) {
      const auto* lib = std::get_if<LibraryNode>(&n);
      if (lib == nullptr || lib->kind != LibKind::kNvshmemPutmemSignal ||
          !generated(*lib)) {
        continue;
      }
      const PutExpansion exp =
          resolve_expansion(options.expansion, lib->src, lib->dst);
      switch (exp) {
        case PutExpansion::kContiguousSignal:
          labels.insert(options.mapped_p_expansion ? "mapped_p"
                        : options.blocking_puts    ? "blocking_put"
                                                   : "contiguous_signal");
          break;
        case PutExpansion::kStridedIputSignal:
          labels.insert("strided_iput");
          break;
        case PutExpansion::kSingleElementP:
          labels.insert("single_p");
          break;
      }
    }
  }
  if (labels.empty()) return "none";
  std::string out;
  for (const std::string& l : labels) {
    if (!out.empty()) out += '+';
    out += l;
  }
  return out;
}

ProgramData::ProgramData(vshmem::World& world, const Sdfg& sdfg,
                         bool functional)
    : world_(&world), functional_(functional) {
  world.set_functional(functional);
  for (const auto& [name, desc] : sdfg.arrays) {
    const std::size_t n = functional ? desc.size : 1;
    vshmem::Sym<double> arr = world.alloc<double>(n, name);
    if (functional && desc.init) {
      for (int pe = 0; pe < world.n_pes(); ++pe) {
        auto s = arr.on(pe);
        for (std::size_t i = 0; i < s.size(); ++i) s[i] = desc.init(pe, i);
      }
    }
    arrays_.emplace(name, std::move(arr));
  }
  signals_ = world.alloc_signals(
      static_cast<std::size_t>(max_signal_index(sdfg)) + 1);
}

ExecCtx ProgramData::ctx(int rank, int size, int t) {
  ExecCtx c;
  c.rank = rank;
  c.size = size;
  c.t = t;
  c.local = [this, rank](const std::string& a) { return local(a, rank); };
  return c;
}

int max_signal_index(const Sdfg& sdfg) {
  int mx = 0;
  for (const State& st : sdfg.body) {
    for (const Node& n : st.nodes) {
      if (const auto* lib = std::get_if<LibraryNode>(&n)) {
        mx = std::max({mx, lib->flag, lib->ack_flag});
      }
    }
  }
  return mx;
}

// --- Discrete (CPU-controlled, MPI) backend ----------------------------------

namespace {

/// Runs one state on one rank's host thread: discrete kernels for GPU maps,
/// MPI library nodes with the stream syncs and staging copies the DaCe
/// baseline generates around them (Fig. 5.1). `reqs` holds the rank's
/// outstanding MPI requests.
sim::Task run_state_discrete(vgpu::HostCtx& h, hostmpi::Comm& comm,
                             ProgramData& data, const State& state,
                             vgpu::Stream& stream, int rank, int t,
                             std::vector<hostmpi::Request>& reqs) {
  const int size = data.world().n_pes();
  for (const Node& node : state.nodes) {
    if (const auto* map = std::get_if<MapNode>(&node)) {
      std::function<void()> fnl;
      if (data.functional() && map->body) {
        fnl = [&data, map, rank, size, t] {
          ExecCtx c = data.ctx(rank, size, t);
          map->body(c);
        };
      }
      CO_AWAIT(exec::launch_compute(h, stream, "map", "map",
                                    map->points * map->bytes_per_point,
                                    std::move(fnl)));
    } else if (const auto* lib = std::get_if<LibraryNode>(&node)) {
      switch (lib->kind) {
        case LibKind::kMpiIsend: {
          if (!lib->active(rank, size)) break;
          const int peer = lib->peer_of(rank, size);
          // The generated baseline synchronizes the stream and stages data
          // through a CPU-initiated memcpy before every MPI call (§5.2).
          CO_AWAIT(h.sync_stream(stream));
          co_await h.pay(h.costs().memcpy_issue, "staging_memcpy");
          const hostmpi::Datatype dt =
              lib->src.contiguous()
                  ? hostmpi::Datatype::contiguous(8)
                  : hostmpi::Datatype::vector(lib->src.count, 1,
                                              lib->src.stride, 8);
          std::function<void()> deliver;
          if (data.functional()) {
            // Eager MPI semantics: snapshot the source NOW (the staging
            // memcpy above); commit into the receiver at match time.
            auto staged = std::make_shared<std::vector<double>>(lib->src.count);
            auto src_span = data.local(lib->array, rank);
            for (std::size_t i = 0; i < lib->src.count; ++i) {
              (*staged)[i] = src_span[lib->src.index(i)];
            }
            ProgramData* dp = &data;
            const LibraryNode* libp = lib;
            deliver = [dp, libp, peer, staged] {
              auto dst_span = dp->local(libp->array, peer);
              for (std::size_t i = 0; i < libp->src.count; ++i) {
                dst_span[libp->dst.index(i)] = (*staged)[i];
              }
            };
          }
          hostmpi::Request r;
          const std::size_t send_count = lib->src.contiguous() ? lib->src.count : 1;
          CO_AWAIT(comm.isend(h, peer, lib->flag, send_count, dt,
                              std::move(deliver), r));
          reqs.push_back(r);
          break;
        }
        case LibKind::kMpiIrecv: {
          if (!lib->active(rank, size)) break;
          const int peer = lib->peer_of(rank, size);
          hostmpi::Request r;
          co_await comm.irecv(h, peer, lib->flag, r);
          reqs.push_back(r);
          break;
        }
        case LibKind::kMpiWaitall: {
          std::vector<hostmpi::Request> pending = std::move(reqs);
          reqs.clear();
          CO_AWAIT(comm.waitall(h, std::move(pending)));
          break;
        }
        default:
          throw ValidationError(
              "NVSHMEM library node in the discrete (MPI) backend; "
              "run execute_persistent instead");
      }
    }
  }
  // DaCe-generated code synchronizes at state boundaries: host-side control
  // flow (interstate edges, MPI of the next state) must observe completed
  // GPU work.
  CO_AWAIT(h.sync_stream(stream));
}

constexpr exec::Plan kDiscretePlan{
    exec::LaunchPolicy::kHostLoop, exec::CommPolicy::kStagedCopy,
    exec::SyncPolicy::kHostBarrier, "dacelite_discrete"};

}  // namespace

ExecResult execute_discrete(vgpu::Machine& machine, hostmpi::Comm& comm,
                            ProgramData& data, const Sdfg& sdfg,
                            ExecOptions options) {
  check_mode("execute_discrete", options, data);
  check_world("execute_discrete", machine, nullptr, data);
  // The MPI operations wait on the Comm's machine's engine.
  if (&comm.machine() != &machine) {
    throw std::invalid_argument(
        "execute_discrete: the Comm is not on the ProgramData's World's "
        "machine");
  }
  sdfg.validate();
  if (!sdfg.gpu) {
    throw ValidationError(
        "execute_discrete requires apply_gpu_transform (GPUTransform)");
  }
  machine.trace().set_enabled(options.trace);
  const int iters = resolve_iterations(sdfg, options);
  vshmem::World& world = data.world();
  // Each rank's outstanding MPI requests, kept across steps.
  std::vector<std::vector<hostmpi::Request>> reqs(
      static_cast<std::size_t>(world.n_pes()));
  exec::Program prog{
      .world = &world, .plan = kDiscretePlan, .iterations = iters};
  // Rank `rank`'s step t: every body state, and the closing stream sync
  // after the last step.
  prog.host_step = [&comm, &data, &sdfg, &reqs, iters](
                       vgpu::HostCtx& h, int rank, int t,
                       std::span<vgpu::Stream* const> streams) -> sim::Task {
    vgpu::Stream& stream = *streams[0];
    auto& rank_reqs = reqs[static_cast<std::size_t>(rank)];
    for (const State& st : sdfg.body) {
      CO_AWAIT(
          run_state_discrete(h, comm, data, st, stream, rank, t, rank_reqs));
    }
    if (t == iters) CO_AWAIT(h.sync_stream(stream));
  };
  exec::run_program(prog);
  ExecResult r;
  r.iterations = iters;
  r.put_expansion = "mpi";
  r.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                   iters);
  cpufree::apply_fault_stats(r.metrics, machine.faults().stats());
  return r;
}

// --- Persistent (CPU-Free, NVSHMEM) backend ----------------------------------

namespace {

/// Expands one NVSHMEM library node in-kernel per the §5.3.1 selection.
sim::Task run_comm_node_persistent(vshmem::World& w, ProgramData& data,
                                   const LibraryNode& lib, vgpu::KernelCtx& k,
                                   int rank, int size, int t,
                                   const ExecOptions& opt) {
  if (!lib.active(rank, size)) co_return;
  cpufree::IterationProtocol proto(w, data.signals());
  switch (lib.kind) {
    case LibKind::kNvshmemPutmemSignal: {
      const int peer = lib.peer_of(rank, size);
      if (lib.ack_flag >= 0) {
        // Flow control: wait until the receiver consumed the previous
        // iteration's halo (it publishes "ready for t" at the top of its
        // exchange state).
        co_await proto.wait_iteration(
            k, static_cast<std::size_t>(lib.ack_flag), t);
      }
      const PutExpansion exp = resolve_expansion(opt.expansion, lib.src, lib.dst);
      vshmem::Sym<double>& arr = data.sym(lib.array);
      const auto flag = static_cast<std::size_t>(lib.flag);
      switch (exp) {
        case PutExpansion::kContiguousSignal:
          if (opt.mapped_p_expansion) {
            // Mapped single-element expansion: many threads each issue one
            // nvshmem_<T>_p; word-granularity stores move at the strided
            // efficiency of the link. Functionally identical to one put.
            co_await w.iput(k, arr, lib.src.offset, 1, lib.dst.offset, 1,
                            lib.src.count, peer);
            co_await w.quiet(k);
            co_await proto.signal_only(k, flag, t, peer);
          } else if (opt.blocking_puts) {
            // Ablation: blocking put + separate signal (serializes the
            // issuing thread on the wire time).
            co_await w.putmem(k, arr, lib.src.offset, lib.dst.offset,
                              lib.src.count, peer, vshmem::Scope::kThread);
            co_await proto.signal_only(k, flag, t, peer);
          } else {
            // Single-thread scheduled nonblocking signaled put (§5.3.2).
            co_await proto.put_and_signal(k, arr, lib.src.offset,
                                          lib.dst.offset, lib.src.count, flag,
                                          t, peer, vshmem::Scope::kThread);
          }
          break;
        case PutExpansion::kStridedIputSignal:
          // iput has no combined signal variant: generate the manual
          // signal_op + quiet pair (§5.3.1).
          co_await w.iput(k, arr, lib.src.offset, lib.src.stride,
                          lib.dst.offset, lib.dst.stride, lib.src.count, peer);
          co_await w.quiet(k);
          co_await proto.signal_only(k, flag, t, peer);
          break;
        case PutExpansion::kSingleElementP: {
          const double value =
              data.functional() ? data.local(lib.array, rank)[lib.src.offset]
                                : 0.0;
          co_await w.p(k, arr, lib.dst.offset, value, peer);
          co_await w.quiet(k);
          co_await proto.signal_only(k, flag, t, peer);
          break;
        }
      }
      break;
    }
    case LibKind::kNvshmemSignalWait:
      // (The consumption ACK for this stream was published in the state's
      // pre-pass — see run_device_persistent — so senders are never gated on
      // OUR sends, which would deadlock.)
      co_await proto.wait_iteration(k, static_cast<std::size_t>(lib.flag), t);
      break;
    default:
      throw ValidationError(
          "MPI library node in the persistent (CPU-Free) backend; apply "
          "apply_mpi_to_nvshmem first");
  }
}

sim::Task run_device_persistent(vshmem::World& w, ProgramData& data,
                                const Sdfg& sdfg, vgpu::KernelCtx& k, int rank,
                                int iters, ExecOptions opt) {
  const int size = w.n_pes();
  const int resident_threads = opt.persistent_blocks * opt.threads_per_block;
  cpufree::IterationProtocol proto(w, data.signals());
  // Sender-side completion. A signaled put reads its source when it is
  // delivered, and apply_mpi_to_nvshmem dropped the Waitall that made an
  // Isend's buffer reusable. So a map that overwrites an array some signaled
  // put reads first quiets this PE's puts still on the wire.
  std::set<std::string> put_sources;
  for (const State& st : sdfg.body) {
    for (const Node& node : st.nodes) {
      const auto* lib = std::get_if<LibraryNode>(&node);
      if (lib != nullptr && lib->kind == LibKind::kNvshmemPutmemSignal) {
        put_sources.insert(lib->array);
      }
    }
  }
  auto overwrites_put_source = [&put_sources](const MapNode& map) {
    return std::any_of(map.writes.begin(), map.writes.end(),
                       [&put_sources](const std::string& a) {
                         return put_sources.count(a) != 0;
                       });
  };
  for (int t = 1; t <= iters; ++t) {
    for (std::size_t si = 0; si < sdfg.body.size(); ++si) {
      const State& st = sdfg.body[si];
      // Pre-pass: publish consumption ACKs ("ready for iteration t" — every
      // read of iteration t-1's halos finished before this state started)
      // for all receive streams, BEFORE any send can block on a peer's ACK.
      for (const Node& node : st.nodes) {
        if (const auto* lib = std::get_if<LibraryNode>(&node)) {
          if (lib->kind == LibKind::kNvshmemSignalWait && lib->ack_flag >= 0 &&
              lib->active(rank, size)) {
            co_await proto.signal_only(k,
                                       static_cast<std::size_t>(lib->ack_flag),
                                       t, lib->peer_of(rank, size));
          }
        }
      }
      for (const Node& node : st.nodes) {
        if (const auto* map = std::get_if<MapNode>(&node)) {
          if (w.outstanding_nbi(rank) > 0 && overwrites_put_source(*map)) {
            co_await w.quiet(k);
          }
          const double tiling = cpufree::software_tiling_efficiency(
              map->points, resident_threads);
          const double bytes = map->points * map->bytes_per_point / tiling;
          std::function<void()> fnl;
          if (data.functional() && map->body) {
            ProgramData* dp = &data;
            const MapNode* mp = map;
            fnl = [dp, mp, rank, size, t] {
              ExecCtx c = dp->ctx(rank, size, t);
              mp->body(c);
            };
          }
          co_await k.compute(bytes, 1.0, "map", std::move(fnl));
        } else if (const auto* lib = std::get_if<LibraryNode>(&node)) {
          CO_AWAIT(run_comm_node_persistent(w, data, *lib, k, rank, size, t,
                                            opt));
        }
      }
      // The persistent pass placed the grid barriers (§5.1): on state edges
      // with a data dependency, or after every state when conservative.
      if (sdfg.barrier_after.at(si)) {
        co_await k.grid_sync();
      }
    }
  }
}

constexpr exec::Plan kPersistentPlan{
    exec::LaunchPolicy::kPersistent, exec::CommPolicy::kSignaledPut,
    exec::SyncPolicy::kIterationFlags, "dacelite_persistent"};

/// The persistent backend's prologue, shared by both entry points once they
/// checked the mode (and the machine and World they were handed): checks
/// the SDFG, resolves the iteration count and the co-resident blocks into
/// `options` (the software-tiling model reads persistent_blocks for the
/// resident-thread count) and fills `r`'s fields known before the launch.
/// Returns the backend as an exec::Program on the ProgramData's World: one
/// `sdfg` group per PE running the whole time loop, with no join (one group
/// per PE under the single-kernel plan; the SDFG places its own grid
/// barriers). ProgramData owns the signals. Ranks are PE indices of the
/// World, which may be a device slice.
exec::Program prepare_persistent(std::string_view fn, ProgramData& data,
                                 const Sdfg& sdfg, ExecOptions& options,
                                 ExecResult& r) {
  sdfg.validate();
  if (!sdfg.persistent) {
    std::string msg(fn);
    msg += " requires apply_persistent (GPUPersistentKernel)";
    throw ValidationError(msg);
  }
  vshmem::World& w = data.world();
  options.iterations = resolve_iterations(sdfg, options);
  options.persistent_blocks = exec::resolve_persistent_blocks(
      options.persistent_blocks, w.machine().spec(), options.threads_per_block);
  r.iterations = options.iterations;
  r.persistent_blocks = options.persistent_blocks;
  r.put_expansion = describe_put_expansions(sdfg, options, w.n_pes());

  exec::Program prog{.world = &w,
                     .plan = kPersistentPlan,
                     .iterations = options.iterations,
                     .threads_per_block = options.threads_per_block};
  prog.groups = [wp = &w, dp = &data, sp = &sdfg, options](
                    int rank, const exec::IterationJoin&) {
    auto body = [wp, dp, sp, rank, options](vgpu::KernelCtx& k) -> sim::Task {
      CO_AWAIT(run_device_persistent(*wp, *dp, *sp, k, rank,
                                     options.iterations, options));
    };
    exec::ProgramGroups pg;
    pg.comm.push_back(
        vgpu::BlockGroup{"sdfg", options.persistent_blocks, std::move(body)});
    return pg;
  };
  return prog;
}

}  // namespace

ExecResult execute_persistent(vgpu::Machine& machine, vshmem::World& world,
                              ProgramData& data, const Sdfg& sdfg,
                              ExecOptions options) {
  check_mode("execute_persistent", options, data);
  check_world("execute_persistent", machine, &world, data);
  ExecResult r;
  const exec::Program prog =
      prepare_persistent("execute_persistent", data, sdfg, options, r);
  machine.trace().set_enabled(options.trace);
  exec::run_program(prog);
  r.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                   r.iterations);
  cpufree::apply_fault_stats(r.metrics, machine.faults().stats());
  return r;
}

sim::Task execute_persistent_task(ProgramData& data, const Sdfg& sdfg,
                                  ExecOptions options, ExecResult* result) {
  check_mode("execute_persistent_task", options, data);
  ExecResult r;
  // On this frame: the launch task below holds a reference to it.
  const exec::Program prog =
      prepare_persistent("execute_persistent_task", data, sdfg, options, r);
  if (result != nullptr) *result = std::move(r);
  co_await exec::run_program_persistent_task(prog);
}

}  // namespace dacelite
