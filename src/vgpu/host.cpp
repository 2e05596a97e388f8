#include "vgpu/host.hpp"

#include <memory>
#include <string>
#include <utility>

namespace vgpu {

namespace {

/// Records a kHostApi interval on the host timeline (device -1), lane = the
/// issuing host thread's device id. `prefix`/`suffix` are concatenated here
/// so callers never build string temporaries at the co_await site (see the
/// CO_AWAIT note in sim/task.hpp).
sim::Task host_busy(Machine& m, int host_lane, sim::Nanos cost,
                    std::string_view prefix, std::string_view suffix = {}) {
  const sim::Nanos t0 = m.engine().now();
  co_await m.engine().delay(cost);
  std::string label(prefix);
  label += suffix;
  m.trace().record(sim::Cat::kHostApi, -1, host_lane, t0, m.engine().now(),
                   std::move(label));
}

/// Checker identity of `stream`.
sim::Actor stream_actor(Stream& stream) {
  return sim::Actor::stream(stream.device().id(), stream.lane());
}

}  // namespace

sim::Task HostCtx::api(std::string_view name) {
  return host_busy(*machine_, device_, costs().api_call, name);
}

sim::Task HostCtx::pay(sim::Nanos cost, std::string_view name) {
  return host_busy(*machine_, device_, cost, name);
}

sim::Task HostCtx::launch(Stream& stream, LaunchConfig config,
                          std::vector<BlockGroup> groups) {
  co_await host_busy(*machine_, device_, costs().kernel_launch,
                     "launch:", config.name);
  if (sim::Observer* o = engine().observer()) {
    o->on_stream_enqueue(obs_actor(), stream_actor(stream), stream.enqueued());
  }
  auto shared_groups =
      std::make_shared<std::vector<BlockGroup>>(std::move(groups));
  Machine* m = machine_;
  Device* dev = &stream.device();
  const sim::Nanos start_latency = costs().launch_to_start;
  const int lane = stream.lane();
  stream.enqueue([m, dev, lane, start_latency, config, shared_groups]() -> sim::Task {
    co_await m->engine().delay(start_latency);
    // A stream op runs once, so the kernel takes the groups over.
    CO_AWAIT(run_kernel(*m, *dev, lane, config, std::move(*shared_groups)));
  });
}

sim::Task HostCtx::launch_single(Stream& stream, std::string_view name,
                                 std::function<sim::Task(KernelCtx&)> body) {
  std::vector<BlockGroup> groups;
  groups.push_back(BlockGroup{name, 1, std::move(body)});
  return launch(stream, LaunchConfig{.name = name}, std::move(groups));
}

sim::Task HostCtx::memcpy_peer_async(Stream& stream, int dst_device,
                                     int src_device, double bytes,
                                     std::string_view name,
                                     std::function<void()> deliver,
                                     sim::MemRange obs_read,
                                     sim::MemRange obs_write) {
  co_await host_busy(*machine_, device_, costs().memcpy_issue,
                     "memcpy_issue:", name);
  sim::TransferObs obs;
  if (sim::Observer* o = engine().observer()) {
    o->on_stream_enqueue(obs_actor(), stream_actor(stream), stream.enqueued());
    // The copy executes as a stream op; the stream observes its completion.
    obs.actor = stream_actor(stream);
    obs.read = obs_read;
    obs.write = obs_write;
    obs.rejoin = true;
  }
  Machine* m = machine_;
  const int lane = stream.lane();
  auto shared_deliver = std::make_shared<std::function<void()>>(std::move(deliver));
  stream.enqueue([m, dst_device, src_device, bytes, lane, name, obs,
                  shared_deliver]() -> sim::Task {
    // A stream op runs once, so the transfer takes the payload over.
    CO_AWAIT(m->transfer(src_device, dst_device, bytes,
                         TransferKind::kHostInitiated, lane, name,
                         std::move(*shared_deliver), sim::Cat::kComm, obs));
  });
}

sim::Task HostCtx::record_event(Stream& stream, Event& event) {
  co_await host_busy(*machine_, device_, costs().event_record, "event_record");
  if (sim::Observer* o = engine().observer()) {
    o->on_stream_enqueue(obs_actor(), stream_actor(stream), stream.enqueued());
  }
  const std::int64_t ticket = event.issue_record();
  Event* ev = &event;
  const sim::Actor sa = stream_actor(stream);
  sim::Engine* eng = &engine();
  stream.enqueue([ev, ticket, sa, eng]() -> sim::Task {
    // The publication carries the stream's history to whoever waits on it.
    if (sim::Observer* o = eng->observer()) {
      o->on_signal_update(sa, &ev->published(), ticket, "event_record");
    }
    ev->publish(ticket);
    co_return;
  });
}

sim::Task HostCtx::stream_wait_event(Stream& stream, Event& event) {
  co_await host_busy(*machine_, device_, costs().stream_wait_event,
                     "stream_wait_event");
  if (sim::Observer* o = engine().observer()) {
    o->on_stream_enqueue(obs_actor(), stream_actor(stream), stream.enqueued());
  }
  const std::int64_t target = event.records();
  Event* ev = &event;
  const sim::Actor sa = stream_actor(stream);
  sim::Engine* eng = &engine();
  stream.enqueue([ev, target, sa, eng]() -> sim::Task {
    sim::Observer* const o = eng->observer();
    if (o != nullptr) {
      o->on_signal_wait_begin(sa, &ev->published(), sim::Cmp::kGe, target,
                              "stream_wait_event");
    }
    co_await ev->published().wait_geq(target);
    if (o != nullptr) o->on_signal_wait_end(sa, &ev->published());
  });
}

sim::Task HostCtx::sync_stream(Stream& stream) {
  const std::int64_t target = stream.enqueued();
  const sim::Nanos t0 = engine().now();
  sim::Observer* const o = engine().observer();
  if (o != nullptr) {
    o->on_signal_wait_begin(obs_actor(), &stream.completed(), sim::Cmp::kGe,
                            target, "stream_sync");
  }
  co_await stream.completed().wait_geq(target);
  if (o != nullptr) {
    o->on_signal_wait_end(obs_actor(), &stream.completed());
    o->on_stream_sync(obs_actor(), stream_actor(stream));
  }
  co_await engine().delay(costs().stream_sync);
  machine_->trace().record(sim::Cat::kHostApi, -1, device_, t0, engine().now(),
                           "stream_sync");
}

sim::Task HostCtx::sync_event(Event& event) {
  const std::int64_t target = event.records();
  const sim::Nanos t0 = engine().now();
  sim::Observer* const o = engine().observer();
  if (o != nullptr) {
    o->on_signal_wait_begin(obs_actor(), &event.published(), sim::Cmp::kGe,
                            target, "event_sync");
  }
  co_await event.published().wait_geq(target);
  if (o != nullptr) o->on_signal_wait_end(obs_actor(), &event.published());
  co_await engine().delay(costs().event_sync);
  machine_->trace().record(sim::Cat::kHostApi, -1, device_, t0, engine().now(),
                           "event_sync");
}

sim::Task HostCtx::barrier() {
  sim::Observer* const o = engine().observer();
  sim::Barrier& b = machine_->host_barrier_sync();
  if (o != nullptr) {
    o->on_barrier_arrive(obs_actor(), &b, b.parties(), "host_barrier");
  }
  co_await machine_->host_barrier();
  if (o != nullptr) o->on_barrier_resume(obs_actor(), &b);
}

}  // namespace vgpu
