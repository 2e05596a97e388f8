#include "vgpu/machine.hpp"

#include <algorithm>
#include <utility>

#include "vgpu/stream.hpp"

namespace vgpu {

Stream& Device::create_stream() {
  streams_.push_back(std::make_unique<Stream>(*this, next_lane_++));
  return *streams_.back();
}

void Device::release_stream(Stream& stream) {
  const auto it = std::find_if(
      streams_.begin(), streams_.end(),
      [&stream](const std::unique_ptr<Stream>& s) { return s.get() == &stream; });
  if (it == streams_.end()) {
    throw std::logic_error("release_stream: lane " +
                           std::to_string(stream.lane()) +
                           " is not a live stream of device " +
                           std::to_string(id_));
  }
  machine_->engine().forget(&stream.completed());
  streams_.erase(it);
}

Machine::Machine(MachineSpec spec) : spec_(spec), faults_(spec_.faults) {
  if (spec_.num_devices <= 0) {
    throw std::invalid_argument("MachineSpec.num_devices must be positive");
  }
  topology_ = resolve_topology(spec_);
  if (topology_.num_devices() != spec_.num_devices) {
    throw std::invalid_argument(
        "MachineSpec.topology has " + std::to_string(topology_.num_devices()) +
        " devices, spec says " + std::to_string(spec_.num_devices));
  }
  router_ = std::make_unique<topo::Router>(topology_);
  ledger_ = std::make_unique<topo::LinkLedger>(engine_, topology_, &faults_);
  devices_.reserve(static_cast<std::size_t>(spec_.num_devices));
  for (int i = 0; i < spec_.num_devices; ++i) {
    devices_.push_back(std::make_unique<Device>(*this, i, spec_.device_spec(i)));
  }
  peer_.assign(static_cast<std::size_t>(spec_.num_devices),
               std::vector<bool>(static_cast<std::size_t>(spec_.num_devices), false));
  host_barrier_ = std::make_unique<sim::Barrier>(
      engine_, static_cast<std::size_t>(spec_.num_devices));
}

Machine::~Machine() = default;

MemBlock& Machine::alloc_block(int device, std::size_t bytes, std::string name) {
  if (device < 0 || device >= spec_.num_devices) {
    throw std::out_of_range("alloc_block: bad device " + std::to_string(device));
  }
  MemBlock& b = *blocks_.emplace_back(
      std::make_unique<MemBlock>(device, bytes, std::move(name)));
  b.slot_ = blocks_.size() - 1;
  live_bytes_ += bytes;
  if (live_bytes_ > peak_bytes_) peak_bytes_ = live_bytes_;
  if (sim::Observer* o = engine_.observer()) {
    o->on_mem_block(b.as<std::byte>().data(), bytes, b.name());
  }
  return b;
}

void Machine::free_block(MemBlock& block) {
  const std::size_t slot = block.slot_;
  if (slot >= blocks_.size() || blocks_[slot].get() != &block) {
    throw std::logic_error("free_block: " + block.name() +
                           " is not a live block of this machine");
  }
  engine_.forget(block.as<std::byte>().data());
  live_bytes_ -= block.size_bytes();
  // Swap-remove: the last block takes the freed slot.
  blocks_[slot] = std::move(blocks_.back());
  blocks_[slot]->slot_ = slot;
  blocks_.pop_back();
}

std::vector<std::uint64_t> Machine::slice_class(
    std::span<const int> devices) const {
  std::vector<std::uint64_t> sig = router_->slice_signature(devices);
  for (int d : devices) {
    int first = 0;
    while (spec_.device_spec(first) != spec_.device_spec(d)) ++first;
    sig.push_back(static_cast<std::uint64_t>(first));
  }
  return sig;
}

void Machine::enable_peer_access(int src, int dst) {
  peer_.at(static_cast<std::size_t>(src)).at(static_cast<std::size_t>(dst)) = true;
}

void Machine::enable_all_peer_access() {
  for (int i = 0; i < spec_.num_devices; ++i) {
    for (int j = 0; j < spec_.num_devices; ++j) {
      if (i != j) enable_peer_access(i, j);
    }
  }
}

bool Machine::peer_enabled(int src, int dst) const {
  return peer_.at(static_cast<std::size_t>(src)).at(static_cast<std::size_t>(dst));
}

sim::Task Machine::transfer(int src, int dst, double bytes, TransferKind kind,
                            int lane, std::string_view name,
                            std::function<void()> deliver, sim::Cat cat,
                            sim::TransferObs obs) {
  // Publication is pure observation: the checker sees the issue before any
  // timed await and the delivery at the arrival instant, with no effect on
  // the charged costs.
  sim::Observer* const obs_sink =
      obs.actor.valid() ? engine_.observer() : nullptr;
  const std::uint64_t op_id = obs_sink != nullptr ? ++obs_op_seq_ : 0;
  const sim::Actor wire = sim::Actor::wire(src, dst);
  if (obs_sink != nullptr) {
    obs_sink->on_put_issue(op_id, obs.actor, wire, obs.read, obs.write,
                           obs.rejoin, name);
  }
  if (src == dst) {
    // Local copy: charge DRAM time only (read + write).
    const sim::Nanos dur = spec_.device.dram_time(2.0 * bytes);
    const sim::Nanos t0 = engine_.now();
    co_await engine_.delay(dur);
    if (obs_sink != nullptr) obs_sink->on_put_deliver(op_id, wire);
    if (deliver) deliver();
    trace().record(cat, src, lane, t0, engine_.now(), name);
    co_return;
  }
  if (!peer_enabled(src, dst)) {
    throw std::logic_error("transfer " + std::to_string(src) + "->" +
                           std::to_string(dst) + " without peer access (" +
                           std::string(name) + ")");
  }
  const sim::Nanos t0 = engine_.now();
  const sim::Nanos latency = kind == TransferKind::kDeviceInitiated
                                 ? spec_.link.device_initiated_latency
                                 : spec_.link.host_initiated_latency;
  const sim::Nanos issue = kind == TransferKind::kDeviceInitiated
                               ? spec_.link.device_put_issue
                               : 0;
  const topo::Route& route = router_->route(src, dst);
  if (!route.contended) {
    // Uncontended route: the wire slot is computed in closed form (FIFO per
    // exclusive link) and the whole transfer is one sleep — the exact event
    // pattern of the flat model.
    const sim::Nanos wire_end =
        ledger_->reserve_exclusive(route, bytes, t0 + issue, name);
    const sim::Nanos t_arr = wire_end + latency + route.extra_latency;
    co_await engine_.delay(t_arr - t0);
  } else {
    // Contended route: occupy the wire under progressive filling, then add
    // the delivery latency.
    co_await ledger_->wire_shared(route, bytes, issue, name);
    const sim::Nanos t_arr = engine_.now() + latency + route.extra_latency;
    co_await engine_.delay(t_arr - engine_.now());
  }
  // Fail-stop rejection happens at the delivery instant: payloads and
  // signals to/from a dead device are dropped, but
  // the wire itself still completed, so sender-side quiet() drains and the
  // source coroutine never wedges on its own transfer.
  if (!faults_.hard_enabled() || !faults_.delivery_blackholed(src, dst)) {
    if (obs_sink != nullptr) obs_sink->on_put_deliver(op_id, wire);
    if (deliver) deliver();
  }
  trace().record(cat, src, lane, t0, engine_.now(), name);
}

sim::Task Machine::staging_transfer(int device, double bytes, bool to_host,
                                    std::string_view name) {
  const topo::Route* route = router_->staging_route(device, to_host);
  if (route == nullptr) {
    // No host bridge in the graph: charge the flat staging formula.
    co_await engine_.delay(spec_.link.host_staging_latency +
                           spec_.link.staging_time(bytes));
    co_return;
  }
  if (!route->contended) {
    const sim::Nanos wire_end =
        ledger_->reserve_exclusive(*route, bytes, engine_.now(), name);
    co_await engine_.delay(wire_end + spec_.link.host_staging_latency +
                           route->extra_latency - engine_.now());
  } else {
    co_await ledger_->wire_shared(*route, bytes, /*issue_delay=*/0, name);
    co_await engine_.delay(spec_.link.host_staging_latency +
                           route->extra_latency);
  }
}

sim::Task Machine::host_barrier() {
  const sim::Nanos t0 = engine_.now();
  co_await host_barrier_->arrive_and_wait();
  co_await engine_.delay(spec_.host.host_barrier);
  trace().record(sim::Cat::kSync, -1, 0, t0, engine_.now(), "host_barrier");
}

void Machine::run_host_threads(
    const std::function<sim::Task(int device)>& host_program) {
  for (int d = 0; d < spec_.num_devices; ++d) {
    engine_.spawn(host_program(d));
  }
  engine_.run();
}

}  // namespace vgpu
