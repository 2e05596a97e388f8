#include "vgpu/kernel.hpp"

#include <memory>
#include <utility>

#include "sim/combinators.hpp"

namespace vgpu {

int total_blocks(const std::vector<BlockGroup>& groups) {
  int n = 0;
  for (const auto& g : groups) n += g.blocks;
  return n;
}

sim::Task KernelCtx::busy(sim::Nanos d, sim::Cat cat, std::string_view name) {
  const sim::Nanos t0 = now();
  // Every timed device step funnels through here, so a stall window opened
  // by the fault plane scales all of this group's step costs at once.
  fault::Schedule& faults = machine_->faults();
  if (d > 0 && faults.enabled()) {
    const double s = faults.stall_scale_at(device_id(), t0);
    if (s > 1.0) {
      d = static_cast<sim::Nanos>(static_cast<double>(d) * s);
      if (faults.first_sight(fault::Site::kStallWindow,
                             static_cast<std::uint64_t>(device_id()), t0)) {
        if (sim::Observer* obs = engine().observer()) {
          obs->on_fault(obs_actor(), fault::site_name(fault::Site::kStallWindow),
                        name);
        }
      }
    }
  }
  co_await engine().delay(d);
  machine_->trace().record(cat, device_id(), lane_ * 16 + group_index_, t0, now(),
                           std::string(name));
}

sim::Task KernelCtx::compute(double dram_bytes, double bw_fraction,
                             std::string_view name, std::function<void()> body) {
  if (body) body();
  co_await busy(device_->spec().dram_time(dram_bytes, bw_fraction),
                sim::Cat::kCompute, name);
}

sim::Task KernelCtx::grid_sync() {
  if (grid_barrier_ == nullptr) {
    throw std::logic_error("grid_sync() in a non-cooperative kernel");
  }
  const sim::Nanos t0 = now();
  sim::Observer* const obs = engine().observer();
  if (obs != nullptr) {
    obs->on_barrier_arrive(obs_actor(), grid_barrier_,
                           grid_barrier_->parties(), "grid_sync");
  }
  co_await grid_barrier_->arrive_and_wait();
  if (obs != nullptr) obs->on_barrier_resume(obs_actor(), grid_barrier_);
  co_await engine().delay(device_->spec().grid_sync);
  machine_->trace().record(sim::Cat::kSync, device_id(),
                           lane_ * 16 + group_index_, t0, now(), "grid_sync");
}

sim::Task KernelCtx::peer_put(int dst_device, double bytes, std::string_view name,
                              std::function<void()> deliver,
                              sim::MemRange obs_read, sim::MemRange obs_write) {
  sim::TransferObs obs;
  if (engine().observer() != nullptr) {
    obs.actor = obs_actor();
    obs.read = obs_read;
    obs.write = obs_write;
    obs.rejoin = true;  // the storing group observes its own store complete
  }
  // `deliver` is a named lvalue here, so the nested co_await carries no
  // non-trivial prvalue (see CO_AWAIT note in sim/task.hpp).
  co_await machine_->transfer(device_id(), dst_device, bytes,
                              TransferKind::kDeviceInitiated,
                              lane_ * 16 + group_index_, name,
                              std::move(deliver), sim::Cat::kComm, obs);
}

sim::Task KernelCtx::spin_wait(sim::Flag& flag, sim::Cmp cmp, std::int64_t rhs,
                               std::string_view name) {
  const sim::Nanos t0 = now();
  sim::Observer* const obs = engine().observer();
  if (obs != nullptr) {
    obs->on_signal_wait_begin(obs_actor(), &flag, cmp, rhs, name);
  }
  const sim::Engine::WaitToken wt =
      engine().note_wait_begin({obs_actor(), name, &flag, cmp, rhs});
  co_await flag.wait(cmp, rhs);
  engine().note_wait_end(wt);
  if (obs != nullptr) obs->on_signal_wait_end(obs_actor(), &flag);
  co_await engine().delay(device_->spec().spin_poll);
  machine_->trace().record(sim::Cat::kSync, device_id(),
                           lane_ * 16 + group_index_, t0, now(), std::string(name));
}

sim::Task KernelCtx::spin_wait_for(sim::Flag& flag, sim::Cmp cmp,
                                   std::int64_t rhs, sim::Nanos timeout,
                                   std::string_view name, bool* satisfied) {
  const sim::Nanos t0 = now();
  sim::Observer* const obs = engine().observer();
  if (obs != nullptr) {
    obs->on_signal_wait_begin(obs_actor(), &flag, cmp, rhs, name);
  }
  const sim::Engine::WaitToken wt =
      engine().note_wait_begin({obs_actor(), name, &flag, cmp, rhs});
  const bool ok = co_await flag.wait_for(cmp, rhs, timeout);
  engine().note_wait_end(wt);
  *satisfied = ok;
  if (!ok) {
    // Watchdog expiry: the waiter withdrew; no happens-before edge from the
    // flag is acquired (the wait did not complete).
    if (obs != nullptr) obs->on_signal_wait_timeout(obs_actor(), &flag, name);
    machine_->trace().record(sim::Cat::kSync, device_id(),
                             lane_ * 16 + group_index_, t0, now(),
                             std::string(name) + "(timeout)");
    co_return;
  }
  if (obs != nullptr) obs->on_signal_wait_end(obs_actor(), &flag);
  co_await engine().delay(device_->spec().spin_poll);
  machine_->trace().record(sim::Cat::kSync, device_id(),
                           lane_ * 16 + group_index_, t0, now(), std::string(name));
}

namespace {

sim::Task run_group(std::shared_ptr<KernelCtx> ctx,
                    std::function<sim::Task(KernelCtx&)> fn,
                    std::string_view gname) {
  // The group timeline starts from the launching stream's point in the
  // happens-before order (stream FIFO serializes successive launches).
  sim::Observer* const obs = ctx->engine().observer();
  const sim::Actor parent = sim::Actor::stream(ctx->device_id(), ctx->lane());
  if (obs != nullptr) obs->on_actor_begin(ctx->obs_actor(), parent, gname);
  co_await fn(*ctx);
  if (obs != nullptr) obs->on_actor_end(ctx->obs_actor(), parent);
}

}  // namespace

sim::Task run_kernel(Machine& machine, Device& device, int lane,
                     LaunchConfig config, std::vector<BlockGroup> groups) {
  const int blocks = total_blocks(groups);
  if (machine.faults().hard_enabled() &&
      machine.faults().device_dead(device.id())) {
    // Fail-stop: a launch onto a declared-dead device retires immediately
    // (the driver rejects it; the stream stays usable for bookkeeping).
    // Not an exception — one dead tenant must not unwind the whole fleet.
    machine.trace().record(sim::Cat::kKernel, device.id(), lane,
                           machine.engine().now(), machine.engine().now(),
                           std::string(config.name) + " [rejected: dead]");
    co_return;
  }
  if (config.cooperative) {
    const int limit = device.spec().max_cooperative_blocks(config.threads_per_block);
    if (blocks > limit) {
      throw CooperativeLaunchError(blocks, limit);
    }
  }
  const sim::Nanos t0 = machine.engine().now();
  auto grid_barrier =
      config.cooperative
          ? std::make_unique<sim::Barrier>(machine.engine(), groups.size())
          : nullptr;
  std::vector<sim::Task> tasks;
  tasks.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    auto ctx = std::make_shared<KernelCtx>(machine, device, lane,
                                           static_cast<int>(i), groups[i].blocks,
                                           blocks, grid_barrier.get());
    tasks.push_back(
        run_group(std::move(ctx), std::move(groups[i].fn), groups[i].name));
  }
  co_await sim::when_all(machine.engine(), std::move(tasks));
  if (grid_barrier) machine.engine().forget(grid_barrier.get());
  machine.trace().record(sim::Cat::kKernel, device.id(), lane, t0,
                         machine.engine().now(), std::string(config.name));
}

}  // namespace vgpu
