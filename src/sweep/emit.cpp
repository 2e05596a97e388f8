#include "sweep/emit.hpp"

#include <cstdio>
#include <stdexcept>

#include "sweep/json.hpp"

namespace sweep {

namespace {

void append_device_json(const vgpu::DeviceSpec& d, JsonWriter& w) {
  w.begin_object();
  w.key("sm_count");
  w.value(d.sm_count);
  w.key("max_threads_per_block");
  w.value(d.max_threads_per_block);
  w.key("max_threads_per_sm");
  w.value(d.max_threads_per_sm);
  w.key("max_blocks_per_sm");
  w.value(d.max_blocks_per_sm);
  w.key("shared_mem_per_sm");
  w.value(d.shared_mem_per_sm);
  w.key("register_bytes_per_sm");
  w.value(d.register_bytes_per_sm);
  w.key("dram_bw_gbps");
  w.value(d.dram_bw_gbps);
  w.key("dram_efficiency");
  w.value(d.dram_efficiency);
  w.key("grid_sync_ns");
  w.value(d.grid_sync);
  w.key("spin_poll_ns");
  w.value(d.spin_poll);
  w.key("local_flag_sync_ns");
  w.value(d.local_flag_sync);
  w.key("per_block_bw_fraction");
  w.value(d.per_block_bw_fraction);
  w.end_object();
}

void append_host_json(const vgpu::HostApiCosts& h, JsonWriter& w) {
  w.begin_object();
  w.key("kernel_launch_ns");
  w.value(h.kernel_launch);
  w.key("launch_to_start_ns");
  w.value(h.launch_to_start);
  w.key("stream_sync_ns");
  w.value(h.stream_sync);
  w.key("event_record_ns");
  w.value(h.event_record);
  w.key("event_sync_ns");
  w.value(h.event_sync);
  w.key("stream_wait_event_ns");
  w.value(h.stream_wait_event);
  w.key("memcpy_issue_ns");
  w.value(h.memcpy_issue);
  w.key("host_barrier_ns");
  w.value(h.host_barrier);
  w.key("api_call_ns");
  w.value(h.api_call);
  w.key("mpi_issue_ns");
  w.value(h.mpi_issue);
  w.key("mpi_wait_ns");
  w.value(h.mpi_wait);
  w.end_object();
}

void append_link_json(const vgpu::LinkSpec& l, JsonWriter& w) {
  w.begin_object();
  w.key("bw_gbps");
  w.value(l.bw_gbps);
  w.key("host_initiated_latency_ns");
  w.value(l.host_initiated_latency);
  w.key("device_initiated_latency_ns");
  w.value(l.device_initiated_latency);
  w.key("device_put_issue_ns");
  w.value(l.device_put_issue);
  w.key("strided_efficiency");
  w.value(l.strided_efficiency);
  w.key("thread_scoped_efficiency");
  w.value(l.thread_scoped_efficiency);
  w.key("small_op_overhead_ns");
  w.value(l.small_op_overhead);
  w.key("host_staging_bw_gbps");
  w.value(l.host_staging_bw_gbps);
  w.key("host_staging_latency_ns");
  w.value(l.host_staging_latency);
  w.key("vector_per_block_overhead_ns");
  w.value(l.vector_per_block_overhead);
  w.end_object();
}

void append_spec_json(const vgpu::MachineSpec& spec, JsonWriter& w) {
  w.begin_object();
  w.key("num_devices");
  w.value(spec.num_devices);
  w.key("device");
  append_device_json(spec.device, w);
  w.key("host");
  append_host_json(spec.host, w);
  w.key("link");
  append_link_json(spec.link, w);
  if (!spec.device_overrides.empty()) {
    w.key("device_overrides");
    w.begin_array();
    for (const vgpu::DeviceSpec& d : spec.device_overrides) {
      append_device_json(d, w);
    }
    w.end_array();
  }
  w.end_object();
}

void append_csv_cell(const std::string& s, std::string& out) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

void append_json(const vgpu::MachineSpec& spec, std::string& out) {
  JsonWriter w;
  append_spec_json(spec, w);
  out += w.str();
}

std::string bench_json(std::string_view bench, int threads,
                       const std::vector<RunRecord>& records) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("cpufree-bench-v1");
  w.key("bench");
  w.value(bench);
  w.key("threads");
  w.value(threads);
  w.key("runs");
  w.begin_array();
  for (const RunRecord& r : records) {
    w.begin_object();
    w.key("id");
    w.value(r.id);
    w.key("params");
    w.begin_object();
    for (const Param& p : r.params) {
      w.key(p.key);
      w.value(p.value);
    }
    w.end_object();
    w.key("workload");
    w.value(r.out.workload);
    w.key("partition_imbalance");
    w.value(r.out.partition_imbalance);
    w.key("wall_ms");
    w.value(r.wall_ms);
    w.key("values");
    w.begin_object();
    for (const auto& [k, v] : r.out.values) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    if (!r.out.notes.empty()) {
      w.key("notes");
      w.begin_object();
      for (const auto& [k, v] : r.out.notes) {
        w.key(k);
        w.value(v);
      }
      w.end_object();
    }
    w.key("metrics");
    w.raw(cpufree::to_json(r.out.metrics));
    w.key("machine");
    append_spec_json(r.out.spec, w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = std::move(w).take();
  out += '\n';
  return out;
}

std::string bench_csv(const std::vector<RunRecord>& records) {
  // Column set: union of param keys then value keys, first-seen order.
  std::vector<std::string> param_keys;
  std::vector<std::string> value_keys;
  std::vector<std::string> note_keys;
  auto note = [](std::vector<std::string>& keys, const std::string& k) {
    for (const std::string& seen : keys) {
      if (seen == k) return;
    }
    keys.push_back(k);
  };
  for (const RunRecord& r : records) {
    for (const Param& p : r.params) note(param_keys, p.key);
    for (const auto& [k, _] : r.out.values) note(value_keys, k);
    for (const auto& [k, _] : r.out.notes) note(note_keys, k);
  }

  std::string out = "index,id,workload,partition_imbalance";
  for (const std::string& k : param_keys) {
    out += ',';
    append_csv_cell(k, out);
  }
  for (const std::string& k : value_keys) {
    out += ',';
    append_csv_cell(k, out);
  }
  for (const std::string& k : note_keys) {
    out += ',';
    append_csv_cell(k, out);
  }
  out +=
      ",wall_ms,total_ns,per_iteration_ns,comm_ns,compute_ns,sync_ns,"
      "host_api_ns,comm_hidden_ns,overlap_ratio,comm_fraction,"
      "noncompute_fraction,hidden_comm_ratio\n";

  char buf[64];
  auto add_double = [&](double v) {
    std::snprintf(buf, sizeof(buf), ",%.17g", v);
    out += buf;
  };
  auto add_ns = [&](sim::Nanos v) {
    std::snprintf(buf, sizeof(buf), ",%lld", static_cast<long long>(v));
    out += buf;
  };
  for (const RunRecord& r : records) {
    std::snprintf(buf, sizeof(buf), "%zu,", r.index);
    out += buf;
    append_csv_cell(r.id, out);
    out += ',';
    append_csv_cell(r.out.workload, out);
    add_double(r.out.partition_imbalance);
    for (const std::string& k : param_keys) {
      out += ',';
      for (const Param& p : r.params) {
        if (p.key == k) {
          append_csv_cell(p.value, out);
          break;
        }
      }
    }
    for (const std::string& k : value_keys) {
      bool found = false;
      for (const auto& [vk, v] : r.out.values) {
        if (vk == k) {
          add_double(v);
          found = true;
          break;
        }
      }
      if (!found) out += ',';
    }
    for (const std::string& k : note_keys) {
      out += ',';
      append_csv_cell(r.out.note_value(k), out);
    }
    add_double(r.wall_ms);
    const cpufree::RunMetrics& m = r.out.metrics;
    add_ns(m.total);
    add_ns(m.per_iteration);
    add_ns(m.comm);
    add_ns(m.compute);
    add_ns(m.sync);
    add_ns(m.host_api);
    add_ns(m.comm_hidden);
    add_double(m.overlap_ratio);
    add_double(m.comm_fraction);
    add_double(m.noncompute_fraction);
    add_double(m.hidden_comm_ratio);
    out += '\n';
  }
  return out;
}

void write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("sweep: cannot open " + path);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    throw std::runtime_error("sweep: short write to " + path);
  }
}

}  // namespace sweep
