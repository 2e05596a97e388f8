#include "vshmem/world.hpp"

#include "sim/intmath.hpp"

namespace vshmem {

namespace {

std::vector<int> identity_devices(int n) {
  std::vector<int> d(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = i;
  return d;
}

}  // namespace

World::World(vgpu::Machine& machine)
    : World(machine, identity_devices(machine.num_devices()), std::string()) {}

World::World(vgpu::Machine& machine, std::vector<int> devices,
             std::string label)
    : machine_(&machine),
      n_pes_(static_cast<int>(devices.size())),
      devices_(std::move(devices)),
      label_(std::move(label)) {
  pe_of_.assign(static_cast<std::size_t>(machine.num_devices()), -1);
  for (int pe = 0; pe < n_pes_; ++pe) {
    pe_of_.at(static_cast<std::size_t>(devices_[static_cast<std::size_t>(pe)])) =
        pe;
  }
  // nvshmem_init establishes the all-to-all PGAS domain over NVLink.
  machine_->enable_all_peer_access();
  pe_.resize(static_cast<std::size_t>(n_pes_));
  for (std::size_t i = 0; i < pe_.size(); ++i) {
    pe_[i].completed = std::make_unique<sim::Flag>(machine_->engine(), 0);
    machine_->engine().name_flag(pe_[i].completed.get(),
                                 label_ + "nbi_completed@pe" +
                                     std::to_string(i));
  }
}

World::~World() {
  sim::Engine& eng = machine_->engine();
  for (const PeState& st : pe_) eng.forget(st.completed.get());
  if (barrier_) eng.forget(barrier_.get());
  for (vgpu::MemBlock* b : blocks_) machine_->free_block(*b);
  for (vgpu::Stream* s : streams_) {
    if (sim::JobMap* jobs = eng.job_map()) {
      jobs->unbind(s->device().id(), s->lane());
    }
    s->device().release_stream(*s);
  }
}

vgpu::Stream& World::create_stream(int pe) {
  vgpu::Stream& s = machine_->device(device_of(pe)).create_stream();
  if (sim::JobMap* jobs = machine_->engine().job_map()) {
    jobs->bind(s.device().id(), s.lane(), label_);
  }
  streams_.push_back(&s);
  return s;
}

void World::hard_stop(std::string reason) {
  if (hard_stopped_) return;
  hard_stopped_ = true;
  hard_stop_reason_ = std::move(reason);
  std::string line = "hard-fault: tenant ";
  line += label_.empty() ? std::string("(whole machine)") : label_;
  line += " evicted: ";
  line += hard_stop_reason_;
  machine_->engine().note_incident(std::move(line));
}

World::PutFaults World::roll_put_faults(vgpu::KernelCtx& ctx, int src_pe,
                                        int dst_pe, bool with_signal,
                                        std::string_view label) {
  PutFaults pf;
  fault::Schedule& faults = machine_->faults();
  if (!faults.enabled() || !inject_faults_) return pf;
  // One PRNG stream per ordered *physical device* pair and site class; issue
  // order on a pair is deterministic, so the consult counters are too. On a
  // whole-machine world PE == device and the historical keys reproduce.
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(device_of(src_pe)) << 20) |
      static_cast<std::uint64_t>(device_of(dst_pe));
  pf.drop = faults.roll(fault::Site::kPutDrop, pair);
  if (!pf.drop) {
    pf.duplicate = faults.roll(fault::Site::kPutDup, pair);
    if (with_signal) {
      pf.lose_signal = faults.roll(fault::Site::kSignalLost, pair);
      if (!pf.lose_signal && faults.roll(fault::Site::kSignalDelay, pair)) {
        pf.delay_signal = faults.config().signal_delay;
      }
    }
  }
  if (sim::Observer* o = machine_->engine().observer()) {
    if (pf.drop) {
      o->on_fault(ctx.obs_actor(), fault::site_name(fault::Site::kPutDrop),
                  label);
    }
    if (pf.duplicate) {
      o->on_fault(ctx.obs_actor(), fault::site_name(fault::Site::kPutDup),
                  label);
    }
    if (pf.lose_signal) {
      o->on_fault(ctx.obs_actor(), fault::site_name(fault::Site::kSignalLost),
                  label);
    }
    if (pf.delay_signal > 0) {
      o->on_fault(ctx.obs_actor(), fault::site_name(fault::Site::kSignalDelay),
                  label);
    }
  }
  return pf;
}

sim::Task World::do_put(int src_pe, int dst_pe, double bytes,
                        double bw_fraction, int lane, std::string_view label,
                        std::function<void()> deliver, sim::Cat cat,
                        sim::TransferObs obs) {
  // Bandwidth fraction below 1.0 models ops that cannot saturate the wire
  // (thread-scoped or element-wise strided): stretch the payload time.
  const double effective_bytes = bw_fraction > 0.0 ? bytes / bw_fraction : bytes;
  co_await machine_->transfer(device_of(src_pe), device_of(dst_pe),
                              effective_bytes,
                              vgpu::TransferKind::kDeviceInitiated, lane, label,
                              std::move(deliver), cat, obs);
}

sim::Task World::run_nbi(sim::Task t, sim::Flag& completed) {
  co_await std::move(t);
  completed.add(1);
}

void World::apply_signal(SignalSet& sig, std::size_t idx, std::int64_t value,
                         SignalOp op, int dst_pe, int src_pe) {
  sim::Flag& f = sig.at(dst_pe, idx);
  if (op == SignalOp::kSet && machine_->faults().signal_coupled()) {
    // Bare kSet signals (ack / flow-control edges) are their own payload:
    // applying one advances the shadow watermark. Idempotent with the
    // payload-side note_landed of a put-attached signal. Only the
    // signal-coupled classes reorder or drop sets, so only they need the
    // shadow.
    sig.shadow(dst_pe, idx).note_landed(value);
  }
  if (op == SignalOp::kSet) {
    // Under signal-coupled fault injection, delayed or retransmitted kSet
    // signals can reach the destination out of order; the monotonic-counter
    // protocols built on top (iteration signals) must not have a stale set
    // rewind the flag and strand a waiter. Otherwise exact NVSHMEM set
    // semantics apply.
    if (machine_->faults().signal_coupled() && value < f.value()) {
      // stale retransmission: already superseded, drop it
    } else {
      f.set(value);
    }
  } else {
    f.add(value);
  }
  // Attributed to the delivering wire: whoever waits on this flag inherits
  // the wire's history (including the payload a put_signal just landed), not
  // the issuer's current state. Woken waiters resume later via the engine
  // queue, so they observe this publication.
  if (sim::Observer* o = machine_->engine().observer()) {
    // Physical wire actor — matches the wire the machine's transfer charged.
    o->on_signal_update(sim::Actor::wire(device_of(src_pe), device_of(dst_pe)),
                        &f, f.value(), "signal");
  }
}

sim::Task World::signal_op(vgpu::KernelCtx& ctx, SignalSet& sig,
                           std::size_t sig_idx, std::int64_t value, SignalOp op,
                           int dst_pe) {
  World* self = this;
  SignalSet* sigp = &sig;
  const int src_pe = pe_of(ctx.device_id());
  // A lone signal update can be lost or postponed like a put-attached one;
  // it shares the per-pair decision streams (issue order is deterministic).
  PutFaults pf;
  if (machine_->faults().enabled() && inject_faults_) {
    fault::Schedule& faults = machine_->faults();
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(device_of(src_pe)) << 20) |
        static_cast<std::uint64_t>(device_of(dst_pe));
    pf.lose_signal = faults.roll(fault::Site::kSignalLost, pair);
    if (!pf.lose_signal && faults.roll(fault::Site::kSignalDelay, pair)) {
      pf.delay_signal = faults.config().signal_delay;
    }
    if (sim::Observer* o = machine_->engine().observer()) {
      if (pf.lose_signal) {
        o->on_fault(ctx.obs_actor(),
                    fault::site_name(fault::Site::kSignalLost), "signal_op");
      }
      if (pf.delay_signal > 0) {
        o->on_fault(ctx.obs_actor(),
                    fault::site_name(fault::Site::kSignalDelay), "signal_op");
      }
    }
  }
  std::function<void()> deliver = [self, sigp, sig_idx, value, op, dst_pe,
                                   src_pe, pf]() {
    if (pf.lose_signal) return;
    if (pf.delay_signal > 0) {
      ++self->deferred_;
      self->machine_->engine().schedule_callback(
          [self, sigp, sig_idx, value, op, dst_pe, src_pe] {
            self->apply_signal(*sigp, sig_idx, value, op, dst_pe, src_pe);
            --self->deferred_;
          },
          pf.delay_signal);
      return;
    }
    self->apply_signal(*sigp, sig_idx, value, op, dst_pe, src_pe);
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.rejoin = false;  // remote visibility is the delivery itself
  }
  const sim::Nanos extra = machine_->spec().link.small_op_overhead;
  co_await machine_->engine().delay(extra);
  // A lone signal update is synchronization, not data movement: account it
  // under kSync so communication-latency metrics match the paper's notion.
  co_await do_put(src_pe, dst_pe, 8.0, 1.0, ctx.lane(), "signal_op",
                  std::move(deliver), sim::Cat::kSync, obs);
}

sim::Task World::signal_wait_until(vgpu::KernelCtx& ctx, SignalSet& sig,
                                   std::size_t sig_idx, sim::Cmp cmp,
                                   std::int64_t value) {
  co_await ctx.spin_wait(sig.at(pe_of(ctx.device_id()), sig_idx), cmp, value,
                         "signal_wait");
}

sim::Task World::quiet(vgpu::KernelCtx& ctx) {
  PeState& st = pe_.at(static_cast<std::size_t>(pe_of(ctx.device_id())));
  const std::int64_t target = st.issued;
  const sim::Nanos t0 = machine_->engine().now();
  sim::Observer* const o = machine_->engine().observer();
  if (o != nullptr) {
    o->on_signal_wait_begin(ctx.obs_actor(), st.completed.get(), sim::Cmp::kGe,
                            target, "quiet");
  }
  const sim::Engine::WaitToken wt = machine_->engine().note_wait_begin(
      {ctx.obs_actor(), "quiet", st.completed.get(), sim::Cmp::kGe, target});
  co_await st.completed->wait_geq(target);
  machine_->engine().note_wait_end(wt);
  if (o != nullptr) {
    o->on_signal_wait_end(ctx.obs_actor(), st.completed.get());
    o->on_quiet(ctx.obs_actor(), ctx.device_id(), "quiet");
  }
  machine_->trace().record(sim::Cat::kSync, ctx.device_id(), ctx.lane(), t0,
                           machine_->engine().now(), "quiet");
}

namespace {
/// Device-side dissemination barrier cost: ceil(log2 n) exchange rounds.
/// Each round is charged the worst route's hop latency on top of the
/// device-initiated latency — on flat single-node topologies that extra is
/// zero and the historical cost reproduces exactly; on multi-node machines
/// the barrier pays for its longest-haul notification every round.
sim::Nanos barrier_cost(const vgpu::Machine& machine, int n) {
  const vgpu::MachineSpec& spec = machine.spec();
  return sim::ceil_log2(n) * (spec.link.device_initiated_latency +
                              spec.link.small_op_overhead +
                              machine.router().max_extra_latency());
}
}  // namespace

sim::Task World::sync_all(vgpu::KernelCtx& ctx) {
  if (!barrier_) {
    barrier_ = std::make_unique<sim::Barrier>(machine_->engine(),
                                              static_cast<std::size_t>(n_pes_));
  }
  const sim::Nanos t0 = machine_->engine().now();
  sim::Observer* const o = machine_->engine().observer();
  if (o != nullptr) {
    o->on_barrier_arrive(ctx.obs_actor(), barrier_.get(),
                         static_cast<std::size_t>(n_pes_), "sync_all");
  }
  co_await barrier_->arrive_and_wait();
  if (o != nullptr) o->on_barrier_resume(ctx.obs_actor(), barrier_.get());
  co_await machine_->engine().delay(barrier_cost(*machine_, n_pes_));
  machine_->trace().record(sim::Cat::kSync, ctx.device_id(), ctx.lane(), t0,
                           machine_->engine().now(), "sync_all");
}

std::int64_t World::outstanding_nbi(int pe) const {
  const PeState& st = pe_.at(static_cast<std::size_t>(pe));
  return st.issued - st.completed->value();
}

bool World::drained() const {
  if (deferred_ != 0) return false;
  for (int pe = 0; pe < n_pes_; ++pe) {
    if (outstanding_nbi(pe) != 0) return false;
  }
  return true;
}

}  // namespace vshmem
