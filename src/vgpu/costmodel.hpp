// Calibrated latency/bandwidth model of a multi-GPU node.
//
// Every constant the simulator charges lives here, in one place, so each
// benchmark can print the calibration it ran with and tests can construct
// degenerate machines (e.g. zero-latency hosts) to isolate effects.
//
// Defaults approximate the paper's testbed: an NVIDIA HGX node with 8 A100
// GPUs connected all-to-all through NVLink/NVSwitch, CUDA 11.8 era host
// latencies. Sources for the orders of magnitude: CUDA kernel-launch and
// stream-synchronization microbenchmarks (~5-10 us host side), NVLink3
// ~250 GB/s per direction per GPU, A100 HBM2e ~1.55 TB/s, device-initiated
// NVSHMEM put latency ~1 us.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/intmath.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"

namespace vgpu {

/// Converts a byte count moved at `gbps` (GB/s == bytes/ns) into integer
/// nanoseconds; zero-byte transfers are free, anything else rounds up to at
/// least 1 ns (sim::ceil_nanos).
[[nodiscard]] inline sim::Nanos transfer_ns(double bytes, double gbps) {
  if (bytes <= 0.0 || gbps <= 0.0) return 0;
  return sim::ceil_nanos(bytes / gbps);
}

/// Per-device hardware characteristics.
struct DeviceSpec {
  int sm_count = 108;
  int max_threads_per_block = 1024;
  int max_threads_per_sm = 2048;
  /// Hardware limit on resident blocks per SM regardless of their size
  /// (32 on A100); small blocks hit this before the thread-count limit.
  int max_blocks_per_sm = 32;
  /// Bytes of shared memory usable per SM (A100: 164 KiB configurable).
  std::size_t shared_mem_per_sm = 164 * 1024;
  /// Register-file bytes per SM (A100: 64K 32-bit registers).
  std::size_t register_bytes_per_sm = 64 * 1024 * 4;
  /// Peak DRAM bandwidth in GB/s.
  double dram_bw_gbps = 1555.0;
  /// Fraction of peak a streaming stencil kernel achieves.
  double dram_efficiency = 0.85;
  /// In-kernel cooperative-groups grid barrier cost.
  sim::Nanos grid_sync = sim::usec(2.2);
  /// Device-side poll granularity for spin-wait loops (signal waits observe
  /// a store at the next poll boundary).
  sim::Nanos spin_poll = sim::usec(0.2);
  /// Cost of a producer/consumer handshake between two co-resident kernels
  /// through a flag in local device memory (release store flushed to L2 +
  /// acquire spin observing it). Comparable to a grid barrier in practice,
  /// which is why the paper's two-kernel alternative performs the same (§4).
  sim::Nanos local_flag_sync = sim::usec(1.0);
  /// Fraction of peak DRAM bandwidth a single thread block can sustain.
  /// DRAM bandwidth is not hard-partitioned across SMs: a small group of
  /// blocks achieves far more than blocks/total of peak.
  double per_block_bw_fraction = 0.03;

  /// Maximum number of co-resident thread blocks for a cooperative launch
  /// with `threads_per_block` threads — the Cooperative Groups constraint the
  /// paper's §4.1.4 discusses. A100 with 1024-thread blocks: 2 per SM. Small
  /// blocks are capped by the per-SM resident-block limit, not just the
  /// thread count: 32-thread blocks give 32 per SM, not 2048/32 = 64.
  [[nodiscard]] constexpr int max_cooperative_blocks(int threads_per_block) const {
    if (threads_per_block <= 0) return 0;
    int per_sm = max_threads_per_sm / threads_per_block;
    if (per_sm > max_blocks_per_sm) per_sm = max_blocks_per_sm;
    return per_sm * sm_count;
  }

  /// Achievable bandwidth share for a group of `blocks` thread blocks out of
  /// `total_blocks` co-resident ones: proportional share, but never less
  /// than what the blocks could pull on their own.
  [[nodiscard]] double bw_share(int blocks, int total_blocks) const {
    if (total_blocks <= 0 || blocks <= 0) return 1.0;
    const double proportional =
        static_cast<double>(blocks) / static_cast<double>(total_blocks);
    const double standalone = per_block_bw_fraction * blocks;
    const double share = proportional > standalone ? proportional : standalone;
    return share > 1.0 ? 1.0 : share;
  }

  /// Time for a kernel phase that moves `bytes` through DRAM using a
  /// `bw_fraction` share of the device's streaming bandwidth.
  [[nodiscard]] sim::Nanos dram_time(double bytes, double bw_fraction = 1.0) const {
    if (bytes <= 0.0 || bw_fraction <= 0.0) return 0;
    return transfer_ns(bytes, dram_bw_gbps * dram_efficiency * bw_fraction);
  }

  [[nodiscard]] static DeviceSpec a100() { return DeviceSpec{}; }

  bool operator==(const DeviceSpec&) const = default;
};

/// Host-side CUDA runtime / orchestration latencies — the costs the CPU-Free
/// model eliminates.
struct HostApiCosts {
  /// Host-thread busy time to issue a kernel launch.
  sim::Nanos kernel_launch = sim::usec(6.5);
  /// Additional latency from issue until the kernel starts on the device.
  sim::Nanos launch_to_start = sim::usec(4.0);
  /// cudaStreamSynchronize: host returns this long after the last op ends.
  sim::Nanos stream_sync = sim::usec(8.0);
  sim::Nanos event_record = sim::usec(1.5);
  sim::Nanos event_sync = sim::usec(2.0);
  sim::Nanos stream_wait_event = sim::usec(1.5);
  /// Host-thread busy time to issue a cudaMemcpyAsync.
  sim::Nanos memcpy_issue = sim::usec(5.0);
  /// OpenMP/MPI barrier across the per-GPU host threads/ranks.
  sim::Nanos host_barrier = sim::usec(15.0);
  /// Generic small runtime API call (set device, query, ...).
  sim::Nanos api_call = sim::usec(1.0);
  /// Host-thread busy time to issue an MPI_Isend / MPI_Irecv.
  sim::Nanos mpi_issue = sim::usec(4.0);
  /// Completion-processing cost per request in MPI_Wait*/MPI_Test.
  sim::Nanos mpi_wait = sim::usec(2.0);

  [[nodiscard]] static HostApiCosts typical() { return HostApiCosts{}; }

  /// A host with no API cost at all; isolates device-side effects in tests.
  [[nodiscard]] static HostApiCosts zero() {
    HostApiCosts c;
    c.kernel_launch = c.launch_to_start = c.stream_sync = 0;
    c.event_record = c.event_sync = c.stream_wait_event = 0;
    c.memcpy_issue = c.host_barrier = c.api_call = 0;
    c.mpi_issue = c.mpi_wait = 0;
    return c;
  }
};

/// Inter-device interconnect characteristics (NVLink through NVSwitch).
struct LinkSpec {
  /// Per-direction bandwidth between any device pair, GB/s.
  double bw_gbps = 250.0;
  /// One-way latency when the transfer is issued by the host runtime
  /// (cudaMemcpyPeerAsync path).
  sim::Nanos host_initiated_latency = sim::usec(2.2);
  /// One-way latency when the transfer is issued from inside a kernel
  /// (P2P load/store or NVSHMEM put).
  sim::Nanos device_initiated_latency = sim::usec(1.1);
  /// Fixed issue cost of a device-initiated put (descriptor build etc.).
  sim::Nanos device_put_issue = sim::usec(0.9);
  /// Achieved bandwidth fraction for element-wise strided puts (iput):
  /// word-granularity remote stores cannot saturate the link.
  double strided_efficiency = 0.25;
  /// Achieved bandwidth fraction when a single thread issues the transfer
  /// (NVSHMEM thread-scoped ops) versus a whole cooperating block
  /// (nvshmemx_*_block, fraction 1.0).
  double thread_scoped_efficiency = 0.30;
  /// Cost of a lone remote signal update (nvshmem_signal_op) or a
  /// single-element put (nvshmem_<type>_p) beyond the one-way latency.
  sim::Nanos small_op_overhead = sim::usec(0.1);
  /// Non-contiguous (vector-datatype) MPI messages fall back to staging
  /// through host memory: effective PCIe-path bandwidth and latency charged
  /// once per direction (device->host, host->device).
  double host_staging_bw_gbps = 12.0;
  sim::Nanos host_staging_latency = sim::usec(10.0);
  /// Per-block cost of the datatype engine on GPU buffers: a naive vector
  /// pack issues one small copy per block (the "several CPU-initiated
  /// memcpy operations" of Fig. 5.1), each with its own driver overhead.
  sim::Nanos vector_per_block_overhead = sim::usec(2.0);

  [[nodiscard]] sim::Nanos wire_time(double bytes) const {
    return transfer_ns(bytes, bw_gbps);
  }

  /// One direction of the host-staging (PCIe) path used by non-contiguous
  /// MPI datatypes; same rounding rules as `wire_time`.
  [[nodiscard]] sim::Nanos staging_time(double bytes) const {
    return transfer_ns(bytes, host_staging_bw_gbps);
  }
};

/// A whole machine (single- or multi-node).
struct MachineSpec {
  int num_devices = 8;
  DeviceSpec device = DeviceSpec::a100();
  HostApiCosts host = HostApiCosts::typical();
  LinkSpec link;
  /// Optional per-device overrides (index = device id); devices beyond the
  /// vector's size use `device`. Lets tests model heterogeneous nodes and
  /// inject timing skew between GPUs.
  std::vector<DeviceSpec> device_overrides;
  /// Interconnect graph. When empty (the default), the flat `link` spec is
  /// re-expressed as a non-blocking crossbar at machine construction —
  /// exactly the historical single-node behavior. Non-crossbar topologies
  /// still take per-transfer latencies and rounding rules from `link`; only
  /// routing, per-link bandwidth, contention, and hop latencies come from
  /// the graph.
  topo::Topology topology;
  /// Seeded fault-injection plane (src/fault/). The default (rate 0) is
  /// structurally inert: no site consults the schedule and runs are
  /// byte-identical to a faultless build.
  fault::Config faults;

  [[nodiscard]] const DeviceSpec& device_spec(int id) const {
    const auto i = static_cast<std::size_t>(id);
    return i < device_overrides.size() ? device_overrides[i] : device;
  }

  /// The paper's testbed: HGX with `n` A100s, all-to-all NVLink through a
  /// non-blocking NVSwitch. Leaves `topology` empty — the crossbar built
  /// from `link` reproduces the flat model bit-for-bit.
  [[nodiscard]] static MachineSpec hgx_a100(int n) {
    MachineSpec s;
    s.num_devices = n;
    return s;
  }

  /// A PCIe-only box (DGX-1-era, NVLink absent): the same GPUs, but every
  /// peer or staging byte crosses a shared PCIe tree, so concurrent halo
  /// exchanges contend for switch uplinks.
  [[nodiscard]] static MachineSpec dgx_pcie(int n) {
    MachineSpec s;
    s.num_devices = n;
    s.link.bw_gbps = 12.0;
    s.topology = topo::make_pcie_tree(n);
    return s;
  }

  /// `nodes` NVSwitch nodes of `gpus_per_node` GPUs joined by a NIC-per-node
  /// network: intra-node routes behave like hgx_a100, inter-node routes
  /// share NIC injection and network links and carry their hop latencies.
  [[nodiscard]] static MachineSpec multi_node(int nodes, int gpus_per_node) {
    MachineSpec s;
    s.num_devices = nodes * gpus_per_node;
    s.topology = topo::make_multi_node(nodes, gpus_per_node);
    return s;
  }
};

/// The interconnect graph a Machine built from `s` runs on: the explicit
/// topology when one is set, otherwise the flat LinkSpec as a crossbar.
[[nodiscard]] inline topo::Topology resolve_topology(const MachineSpec& s) {
  return s.topology.empty()
             ? topo::make_crossbar(s.num_devices, s.link.bw_gbps,
                                   s.link.host_staging_bw_gbps)
             : s.topology;
}

}  // namespace vgpu
