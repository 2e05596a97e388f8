#include "tune/rollout.hpp"

#include <algorithm>
#include <variant>

#include "cpufree/perks.hpp"
#include "dacelite/transforms.hpp"

namespace tune {

namespace {

/// Per-rank, per-iteration cost accumulator.
struct IterCost {
  sim::Nanos compute = 0;  // map streaming
  sim::Nanos issue = 0;    // serial sending-thread overheads
  sim::Nanos serial = 0;   // comm the issuing thread blocks on (iput+quiet)
  sim::Nanos overlap = 0;  // nonblocking wire time, hidden behind compute
  sim::Nanos sync = 0;     // grid barriers + signal-wait poll alignment

  [[nodiscard]] sim::Nanos total() const {
    const sim::Nanos excess = overlap > compute ? overlap - compute : 0;
    return compute + issue + serial + sync + excess;
  }
};

void charge_put(const dacelite::LibraryNode& lib,
                const dacelite::ExecOptions& opt, const vgpu::LinkSpec& link,
                const vgpu::DeviceSpec& dev, IterCost& c) {
  const double bytes = static_cast<double>(lib.src.count) * sizeof(double);
  const dacelite::PutExpansion exp =
      dacelite::resolve_expansion(opt.expansion, lib.src, lib.dst);
  if (lib.ack_flag >= 0) c.sync += dev.spin_poll;  // steady-state flow control
  switch (exp) {
    case dacelite::PutExpansion::kContiguousSignal:
      if (opt.mapped_p_expansion) {
        // Word-granularity p-stores + quiet: serializes on the strided rate.
        c.serial += link.device_initiated_latency +
                    vgpu::transfer_ns(bytes, link.bw_gbps *
                                                 link.strided_efficiency) +
                    link.small_op_overhead;
      } else if (opt.blocking_puts) {
        c.serial += link.device_initiated_latency +
                    vgpu::transfer_ns(bytes,
                                      link.bw_gbps *
                                          link.thread_scoped_efficiency) +
                    link.small_op_overhead;
      } else {
        // Nonblocking signaled put: the thread pays the issue cost; the
        // payload rides the wire behind compute.
        c.issue += link.device_put_issue;
        c.overlap +=
            link.device_initiated_latency +
            vgpu::transfer_ns(
                bytes, link.bw_gbps * link.thread_scoped_efficiency);
      }
      break;
    case dacelite::PutExpansion::kStridedIputSignal:
      // iput has no nbi signal variant: quiet serializes the thread on the
      // element-wise wire time before the manual signal.
      c.serial +=
          link.device_put_issue + link.device_initiated_latency +
          vgpu::transfer_ns(bytes, link.bw_gbps * link.strided_efficiency) +
          link.small_op_overhead;
      break;
    case dacelite::PutExpansion::kSingleElementP:
      c.serial += link.device_initiated_latency + 2 * link.small_op_overhead;
      break;
  }
}

}  // namespace

sim::Nanos predict_total(const dacelite::Sdfg& sdfg,
                         const vgpu::MachineSpec& spec,
                         const dacelite::ExecOptions& options, int iterations) {
  const int size = spec.num_devices;
  const vgpu::DeviceSpec& dev = spec.device;
  const int resident_threads =
      options.persistent_blocks * options.threads_per_block;

  sim::Nanos worst_iter = 0;
  for (int rank = 0; rank < size; ++rank) {
    IterCost c;
    for (std::size_t si = 0; si < sdfg.body.size(); ++si) {
      const dacelite::State& st = sdfg.body[si];
      for (const dacelite::Node& node : st.nodes) {
        if (const auto* map = std::get_if<dacelite::MapNode>(&node)) {
          const double tiling = cpufree::software_tiling_efficiency(
              map->points, resident_threads);
          c.compute += dev.dram_time(map->points * map->bytes_per_point /
                                     tiling);
        } else if (const auto* lib =
                       std::get_if<dacelite::LibraryNode>(&node)) {
          if (!lib->active(rank, size)) continue;
          switch (lib->kind) {
            case dacelite::LibKind::kNvshmemPutmemSignal:
              charge_put(*lib, options, spec.link, dev, c);
              break;
            case dacelite::LibKind::kNvshmemSignalWait:
              // Steady state: the halo arrived during compute; the waiter
              // observes it at the next poll boundary (plus the ack publish
              // the backend's pre-pass issues for this stream).
              c.sync += dev.spin_poll;
              if (lib->ack_flag >= 0) c.issue += spec.link.small_op_overhead;
              break;
            default:
              throw dacelite::ValidationError(
                  "predict_total: MPI library node in a persistent SDFG");
          }
        }
      }
      if (sdfg.barrier_after.at(si)) {
        c.sync += dev.grid_sync;
      }
    }
    worst_iter = std::max(worst_iter, c.total());
  }

  const vgpu::HostApiCosts& host = spec.host;
  return host.kernel_launch + host.launch_to_start + host.stream_sync +
         static_cast<sim::Nanos>(iterations) * worst_iter;
}

}  // namespace tune
