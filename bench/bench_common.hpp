// Shared reporting helpers for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure from the paper's evaluation
// chapter: it sweeps the same parameters, runs the same code variants on the
// simulated HGX node, and prints the series the figure plots. The simulator
// is deterministic, so the paper's "minimum of 5 consecutive runs" protocol
// is satisfied by a single run: all 5 would be identical. Only
// micro_primitives, which times host wall-clock, reads --repeats
// (Reads::repeats).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/detector.hpp"
#include "exec/policy.hpp"
#include "fault/schedule.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"
#include "topo/router.hpp"
#include "vgpu/costmodel.hpp"

namespace bench {

inline void print_header(std::string_view figure, std::string_view title) {
  std::printf("==============================================================\n");
  std::printf("%.*s — %.*s\n", static_cast<int>(figure.size()), figure.data(),
              static_cast<int>(title.size()), title.data());
  std::printf("==============================================================\n");
}

inline void print_calibration(const vgpu::MachineSpec& spec) {
  std::printf(
      "machine: %d x A100 (%d SMs, %.0f GB/s HBM @ %.0f%% eff), NVLink "
      "%.0f GB/s/dir\n",
      spec.num_devices, spec.device.sm_count, spec.device.dram_bw_gbps,
      spec.device.dram_efficiency * 100.0, spec.link.bw_gbps);
  std::printf(
      "host costs (us): launch %.1f  stream_sync %.1f  memcpy_issue %.1f  "
      "barrier %.1f  mpi_issue %.1f\n",
      sim::to_usec(spec.host.kernel_launch), sim::to_usec(spec.host.stream_sync),
      sim::to_usec(spec.host.memcpy_issue), sim::to_usec(spec.host.host_barrier),
      sim::to_usec(spec.host.mpi_issue));
  std::printf(
      "device costs (us): grid_sync %.1f  put_issue %.1f  link lat %.1f "
      "(dev) / %.1f (host)\n\n",
      sim::to_usec(spec.device.grid_sync),
      sim::to_usec(spec.link.device_put_issue),
      sim::to_usec(spec.link.device_initiated_latency),
      sim::to_usec(spec.link.host_initiated_latency));
}

/// Dumps the machine's interconnect graph (nodes, links) and the fixed route
/// the Router picked for every ordered device pair. Backs the --topo flag:
/// every bench driver prints this for its machine and exits, so a reader can
/// see exactly which wires each transfer will be charged on.
inline void print_topology(const vgpu::MachineSpec& spec,
                           std::string_view label) {
  const topo::Topology t = vgpu::resolve_topology(spec);
  const topo::Router router(t);
  std::printf("topology: %.*s (%d device(s), %zu node(s), %zu link(s))\n",
              static_cast<int>(label.size()), label.data(), t.num_devices(),
              t.nodes.size(), t.links.size());
  std::printf("nodes:\n");
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    const char* kind = "?";
    switch (t.nodes[i].kind) {
      case topo::NodeKind::kDevice: kind = "device"; break;
      case topo::NodeKind::kSwitch: kind = "switch"; break;
      case topo::NodeKind::kNic: kind = "nic"; break;
      case topo::NodeKind::kHostBridge: kind = "host-bridge"; break;
    }
    std::printf("  [%2zu] %-12s %s\n", i, kind, t.nodes[i].name.c_str());
  }
  std::printf("links:\n");
  for (std::size_t i = 0; i < t.links.size(); ++i) {
    const topo::Link& l = t.links[i];
    std::printf("  [%2zu] %-24s %s -> %s  %.0f GB/s  +%.1f us  %s\n", i,
                l.name.c_str(),
                t.nodes[static_cast<std::size_t>(l.src)].name.c_str(),
                t.nodes[static_cast<std::size_t>(l.dst)].name.c_str(),
                l.bw_gbps, sim::to_usec(l.extra_latency), topo::name(l.policy));
  }
  std::printf("routes (per ordered device pair):\n");
  for (int s = 0; s < t.num_devices(); ++s) {
    for (int d = 0; d < t.num_devices(); ++d) {
      if (s == d) continue;
      const topo::Route& r = router.route(s, d);
      std::string path;
      for (int link_id : r.links) {
        if (!path.empty()) path += " -> ";
        path += t.links[static_cast<std::size_t>(link_id)].name;
      }
      std::printf("  %d -> %d: %s  (bottleneck %.0f GB/s, +%.1f us%s)\n", s, d,
                  path.c_str(), r.min_bw, sim::to_usec(r.extra_latency),
                  r.contended ? ", contended" : "");
    }
  }
  std::printf("\n");
}

/// A named (launch, comm, sync) composition to list in the report header.
using PolicyRow = std::pair<std::string_view, exec::Plan>;

/// Prints the exec-layer policy triple behind each evaluated variant, so the
/// report states the composition (§4.1) each variant name stands for.
inline void print_policies(const std::vector<PolicyRow>& rows) {
  std::printf("execution policies (launch, comm, sync):\n");
  for (const auto& [label, plan] : rows) {
    const std::string_view l = exec::name(plan.launch);
    const std::string_view c = exec::name(plan.comm);
    const std::string_view s = exec::name(plan.sync);
    std::printf("  %-24.*s (%.*s, %.*s, %.*s)\n",
                static_cast<int>(label.size()), label.data(),
                static_cast<int>(l.size()), l.data(),
                static_cast<int>(c.size()), c.data(),
                static_cast<int>(s.size()), s.data());
  }
  std::printf("\n");
}

/// Tags a run result with its workload family and realized
/// partition-imbalance factor, so every cpufree-bench-v1 record
/// self-describes what ran and how skewed its per-rank partition was.
inline void tag_workload(sweep::RunResult& r, std::string_view kind,
                         double partition_imbalance) {
  r.workload = std::string(kind);
  r.partition_imbalance = partition_imbalance;
}

/// Imbalance factor of the even slab row split the regular workloads use:
/// max rows per rank / mean rows per rank (exactly 1.0 when ranks | ny).
[[nodiscard]] inline double slab_imbalance(std::size_t ny, int ranks) {
  if (ranks <= 0 || ny == 0) return 1.0;
  const std::size_t ru = static_cast<std::size_t>(ranks);
  const std::size_t max_rows = ny / ru + (ny % ru != 0 ? 1 : 0);
  return static_cast<double>(max_rows) * static_cast<double>(ru) /
         static_cast<double>(ny);
}

/// One table row: label + one value per GPU count.
struct Row {
  std::string label;
  std::vector<double> values;
};

inline void print_table(std::string_view caption,
                        const std::vector<int>& gpu_counts,
                        const std::vector<Row>& rows,
                        std::string_view unit) {
  std::printf("%.*s [%.*s]\n", static_cast<int>(caption.size()), caption.data(),
              static_cast<int>(unit.size()), unit.data());
  std::printf("  %-24s", "variant");
  for (int g : gpu_counts) std::printf("  %8d GPU%s", g, g == 1 ? " " : "s");
  std::printf("\n");
  for (const Row& r : rows) {
    std::printf("  %-24s", r.label.c_str());
    for (double v : r.values) std::printf("  %12.2f", v);
    std::printf("\n");
  }
  std::printf("\n");
}

/// Speedup% table against a baseline row (the paper's formula).
inline void print_speedups(std::string_view caption,
                           const std::vector<int>& gpu_counts,
                           const Row& baseline, const Row& ours) {
  std::printf("%.*s\n", static_cast<int>(caption.size()), caption.data());
  for (std::size_t i = 0; i < gpu_counts.size(); ++i) {
    std::printf("  %d GPUs: %+6.1f%%\n", gpu_counts[i],
                sim::speedup_percent(baseline.values[i], ours.values[i]));
  }
  std::printf("\n");
}

/// Prints a usage message for a malformed flag payload and exits. Bench
/// flags fail fast, they never guess.
[[noreturn]] inline void flag_usage_error(std::string_view flag,
                                          std::string_view expected,
                                          std::string_view got) {
  std::fprintf(stderr, "%.*s: expected %.*s, got \"%.*s\"\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(expected.size()), expected.data(),
               static_cast<int>(got.size()), got.data());
  std::exit(2);
}

/// strtoull with the endptr discipline the naive call skips: the WHOLE token
/// must be digits. "12x", "-3" (strtoull silently negates!), "" and "0x10"
/// all previously slid through as plausible-looking seeds.
inline bool parse_u64_strict(const std::string& v, std::uint64_t& out) {
  if (v.empty() || v[0] == '-' || v[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  out = r;
  return true;
}

/// strtod with full-token validation; rejects nan/inf and trailing junk
/// ("0.05GHz" used to parse as 0.05).
inline bool parse_double_strict(const std::string& v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double r = std::strtod(v.c_str(), &end);
  if (errno != 0 || end != v.c_str() + v.size() || !std::isfinite(r)) {
    return false;
  }
  out = r;
  return true;
}

/// Full-token int parse for flag operands ("--threads 4x" is an error, not
/// 4).
inline bool parse_int_strict(const std::string& v, int& out) {
  std::uint64_t u = 0;
  if (v.size() > 1 && v[0] == '-') {
    if (!parse_u64_strict(v.substr(1), u) ||
        u > 1ull << 31) {
      return false;
    }
    out = static_cast<int>(-static_cast<std::int64_t>(u));
    return true;
  }
  if (!parse_u64_strict(v, u) || u > 1ull << 30) return false;
  out = static_cast<int>(u);
  return true;
}

/// Walks a "key=value,key=value" flag payload and hands each pair to
/// `field`. A false return (unknown key, malformed value) — or a pair with
/// no '=' or an empty value — aborts with the canonical usage message.
/// Every key=value bench flag (--faults, --serve, --arrival) shares this
/// contract: whole-token validation, fail fast, never guess.
inline void parse_kv_flag(
    std::string_view flag, std::string_view expected, std::string_view s,
    const std::function<bool(std::string_view key, const std::string& value)>&
        field) {
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string_view::npos) end = s.size();
    const std::string_view kv = s.substr(pos, end - pos);
    const std::size_t eq = kv.find('=');
    const std::string_view key = kv.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? std::string_view()
                                                         : kv.substr(eq + 1));
    if (eq == std::string_view::npos || value.empty() || !field(key, value)) {
      flag_usage_error(flag, expected, s);
    }
    pos = end + 1;
  }
}

/// Parses the --faults payload "seed=S,rate=R[,resilience=none|retry|
/// retry+degrade][,classes=a+b+...]" into a fault::Config. Exits with a
/// usage message on malformed input (bench flags fail fast, they never
/// guess). `classes=` restricts injection to the named window classes
/// (link, flap, stall, signal_lost, signal_delay, put_drop, put_dup, or
/// `all`).
inline fault::Config parse_faults(std::string_view s) {
  fault::Config cfg;
  parse_kv_flag(
      "--faults",
      "seed=S,rate=R (0<=R<=1)[,resilience=none|retry|retry+degrade]"
      "[,classes=link+flap+stall+signal_lost+signal_delay+put_drop+put_dup"
      "|all]",
      s, [&cfg](std::string_view key, const std::string& value) {
        if (key == "seed") return parse_u64_strict(value, cfg.seed);
        if (key == "rate") {
          return parse_double_strict(value, cfg.rate) && cfg.rate >= 0.0 &&
                 cfg.rate <= 1.0;
        }
        if (key == "classes") {
          unsigned mask = 0;
          std::string_view rest = value;
          while (!rest.empty()) {
            std::size_t plus = rest.find('+');
            const std::string_view tok = rest.substr(0, plus);
            if (tok == "link") mask |= fault::kClassLink;
            else if (tok == "flap") mask |= fault::kClassFlap;
            else if (tok == "stall") mask |= fault::kClassStall;
            else if (tok == "signal_lost") mask |= fault::kClassSignalLost;
            else if (tok == "signal_delay") mask |= fault::kClassSignalDelay;
            else if (tok == "put_drop") mask |= fault::kClassPutDrop;
            else if (tok == "put_dup") mask |= fault::kClassPutDup;
            else if (tok == "all") mask |= fault::kClassAll;
            else return false;
            if (plus == std::string_view::npos) break;
            rest = rest.substr(plus + 1);
          }
          if (mask == 0) return false;
          cfg.classes = mask;
          return true;
        }
        if (key == "resilience") {
          if (value == "none" || value == "no-retry") {
            cfg.resilience = fault::Resilience::kNone;
          } else if (value == "retry") {
            cfg.resilience = fault::Resilience::kRetry;
          } else if (value == "retry+degrade" || value == "degrade") {
            cfg.resilience = fault::Resilience::kRetryDegrade;
          } else {
            return false;
          }
          return true;
        }
        return false;
      });
  return cfg;
}

/// Parses the strict --hard-faults payload "kill_device=D,at_iter=K[,ckpt=N]"
/// into a permanent device fail-stop appended to `cfg.hard`: device D is
/// declared dead the first time a resident persistent kernel reaches
/// iteration K (it completes 1..K-1 and never executes K). ckpt=N sets
/// `*checkpoint_every`, the recovery checkpoint interval of a driver that
/// fails over (fig_failover); for any other driver `checkpoint_every` is
/// null and ckpt is rejected. Exits 2 with the canonical usage message on
/// malformed input — hard faults kill hardware, so a typo must never
/// half-parse into a different kill.
inline void parse_hard_faults(std::string_view s, fault::Config& cfg,
                              int* checkpoint_every) {
  const std::string_view expected =
      checkpoint_every != nullptr
          ? "kill_device=D (D>=0),at_iter=K (K>=1)[,ckpt=N (N>=1)]"
          : "kill_device=D (D>=0),at_iter=K (K>=1)";
  fault::HardFault h;
  bool have_device = false;
  bool have_iter = false;
  parse_kv_flag(
      "--hard-faults", expected, s,
      [&](std::string_view key, const std::string& value) {
        if (key == "kill_device") {
          have_device = parse_int_strict(value, h.device) && h.device >= 0;
          return have_device;
        }
        if (key == "at_iter") {
          int k = 0;
          have_iter = parse_int_strict(value, k) && k >= 1;
          h.at = k;
          return have_iter;
        }
        if (key == "ckpt" && checkpoint_every != nullptr) {
          return parse_int_strict(value, *checkpoint_every) &&
                 *checkpoint_every >= 1;
        }
        return false;
      });
  if (!have_device || !have_iter) flag_usage_error("--hard-faults", expected, s);
  cfg.hard.push_back(h);
  cfg.classes |= fault::kClassDeviceDead;
}

/// The shared flags only some drivers read. Each driver names the ones it
/// reads; for any other driver they exit 2 with usage, like an unknown flag.
struct Reads {
  bool trace = false;        ///< --trace [PATH]
  bool tune = false;         ///< --tune
  bool tune_budget = false;  ///< --tune-budget N
  bool repeats = false;      ///< --repeats N
  bool checkpoint = false;   ///< ckpt=N in --hard-faults
};

/// Parses the flags bench drivers share. Operands are given as "--flag V"
/// or "--flag=V"; numeric ones are parsed strictly. An unknown flag, a
/// shared flag the driver does not read, a flag missing its operand or a
/// malformed operand exits 2 with usage.
struct Args {
  int repeats = 1;
  /// Sweep worker threads; 0 = all hardware threads, 1 = sequential.
  int threads = 0;
  bool progress = true;
  /// --check: skip the sweep; run each variant once under the race/deadlock
  /// checker (src/check/) on a small instance and print a verdict per case.
  bool check = false;
  /// --topo: print the machine's interconnect graph and every device-pair
  /// route, then exit without sweeping.
  bool topo = false;
  bool trace_dump = false;
  std::string trace_path = "trace.json";
  std::string out_json;  // --out PATH; default BENCH_<name>.json
  std::string out_csv;   // --csv PATH; no CSV when empty
  /// --faults seed=S,rate=R[,resilience=...]: the fault plane every swept
  /// machine runs under. Default (rate 0) is structurally inert.
  fault::Config faults;
  /// --hard-faults kill_device=D,at_iter=K[,ckpt=N]: permanent device
  /// fail-stop layered onto `faults` (repeatable). ckpt lands here, and only
  /// a recovery-capable driver (Reads::checkpoint) accepts it.
  int hard_checkpoint_every = 0;
  /// --tune: skip the sweep; run the recipe autotuner (src/tune/) on the
  /// driver's tunable workloads and report predicted vs measured times.
  bool tune = false;
  /// --tune-budget N: cap the enumerated candidate space (0 = full space).
  int tune_budget = 0;

  /// `reads` names the optional shared flags the driver reads.
  /// `driver_flags` names the flags a driver parses itself, each taking one
  /// operand as "--flag V": they are skipped here (a trailing one exits 2)
  /// and validated by the driver's own parser.
  static Args parse(int argc, char** argv, Reads reads = {},
                    std::initializer_list<std::string_view> driver_flags = {}) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const std::size_t eq = arg.find('=');
      const bool has_inline = eq != std::string_view::npos;
      const std::string_view s = arg.substr(0, eq);
      // The text after '=', else the next argument; missing or empty exits 2.
      auto operand = [&](std::string_view expected) {
        std::string v;
        if (has_inline) {
          v = arg.substr(eq + 1);
        } else if (i + 1 < argc) {
          v = argv[++i];
        }
        if (v.empty()) flag_usage_error(s, expected, v);
        return v;
      };
      if (s == "--repeats" && reads.repeats) {
        parse_repeats(operand("an integer >= 1"), a.repeats);
      } else if (s == "--threads") {
        parse_threads(operand("an integer >= 0 (0 = all cores)"), a.threads);
      } else if (s == "--tune-budget" && reads.tune_budget) {
        const std::string v = operand("an integer >= 0");
        if (!parse_int_strict(v, a.tune_budget) || a.tune_budget < 0) {
          flag_usage_error("--tune-budget", "an integer >= 0", v);
        }
      } else if (s == "--faults") {
        a.faults = parse_faults(operand("seed=S,rate=R[,...]"));
      } else if (s == "--hard-faults") {
        parse_hard_faults(
            operand(reads.checkpoint ? "kill_device=D,at_iter=K[,ckpt=N]"
                                     : "kill_device=D,at_iter=K"),
            a.faults, reads.checkpoint ? &a.hard_checkpoint_every : nullptr);
      } else if (s == "--out") {
        a.out_json = operand("a path");
      } else if (s == "--csv") {
        a.out_csv = operand("a path");
      } else if (s == "--trace" && reads.trace) {
        a.trace_dump = true;
        if (has_inline) {
          a.trace_path = operand("a path");
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
          a.trace_path = argv[++i];
        }
      } else if (arg == "--quiet") {
        a.progress = false;
      } else if (arg == "--check") {
        a.check = true;
      } else if (arg == "--tune" && reads.tune) {
        a.tune = true;
      } else if (arg == "--topo") {
        a.topo = true;
      } else if (std::find(driver_flags.begin(), driver_flags.end(), arg) !=
                 driver_flags.end()) {
        (void)operand("an operand");
      } else {
        std::string usage =
            "one of --threads N, --quiet, --check, --topo, --faults SPEC, "
            "--hard-faults SPEC, --out PATH, --csv PATH";
        if (reads.repeats) usage += ", --repeats N";
        if (reads.tune) usage += ", --tune";
        if (reads.tune_budget) usage += ", --tune-budget N";
        if (reads.trace) usage += ", --trace [PATH]";
        for (std::string_view f : driver_flags) {
          usage += ", ";
          usage += f;
          usage += " V";
        }
        flag_usage_error("unknown flag", usage, arg);
      }
    }
    return a;
  }

  static void parse_repeats(const std::string& v, int& out) {
    if (!parse_int_strict(v, out) || out < 1) {
      flag_usage_error("--repeats", "an integer >= 1", v);
    }
  }

  static void parse_threads(const std::string& v, int& out) {
    if (!parse_int_strict(v, out) || out < 0) {
      flag_usage_error("--threads", "an integer >= 0 (0 = all cores)", v);
    }
  }

  [[nodiscard]] sweep::Options sweep_options() const {
    sweep::Options o;
    o.threads = threads;
    o.progress = progress;
    return o;
  }

  /// Applies the --faults configuration to a machine spec (identity when
  /// the flag was not given). Drivers route every spec they sweep through
  /// this.
  [[nodiscard]] vgpu::MachineSpec with_faults(vgpu::MachineSpec spec) const {
    spec.faults = faults;
    return spec;
  }
};

/// One line stating the fault plane a sweep runs under (printed only when
/// --faults enabled it, so faultless reports are unchanged).
inline void print_faults(const fault::Config& cfg) {
  if (cfg.enabled()) {
    std::printf(
        "fault plane: seed=%llu rate=%g resilience=%s (retries %d, watchdog "
        "%.0f us + %.0f us/attempt)\n\n",
        static_cast<unsigned long long>(cfg.seed), cfg.rate,
        fault::name(cfg.resilience), cfg.retry.max_retries,
        sim::to_usec(cfg.retry.timeout), sim::to_usec(cfg.retry.backoff));
  }
  if (cfg.hard_enabled()) {
    for (const fault::HardFault& h : cfg.hard) {
      std::printf("hard fault: kill device %d at iteration %lld\n", h.device,
                  static_cast<long long>(h.at));
    }
    std::printf("\n");
  }
}

/// One workload validated under --check. `run` must attach the observer to
/// the engine it builds (e.g. via StencilConfig/CgConfig::observer, or
/// machine.engine().set_observer) before allocating or launching anything.
struct CheckCase {
  std::string label;
  std::function<void(sim::Observer*)> run;
};

/// Runs every case under a fresh happens-before race / deadlock detector
/// and prints one PASS/RACE/DEADLOCK verdict per case. Returns the process
/// exit code: 0 iff every case is clean.
inline int run_check(const std::vector<CheckCase>& cases) {
  int dirty = 0;
  for (const CheckCase& c : cases) {
    check::Detector det;
    try {
      c.run(&det);
    } catch (const sim::DeadlockError&) {
      // Already diagnosed: Engine::run publishes on_deadlock pre-throw.
    }
    std::printf("[%s] %s\n", c.label.c_str(), det.report_text().c_str());
    if (!det.clean()) ++dirty;
  }
  std::printf("--check: %zu case(s), %d dirty -> %s\n", cases.size(), dirty,
              dirty == 0 ? "PASS" : "FAIL");
  return dirty == 0 ? 0 : 1;
}

/// Walks sweep records in submission order. The drivers queue jobs in the
/// same nested-loop structure they later build tables in, so consuming the
/// record vector front-to-back lines every record up with its table cell.
class RecordCursor {
 public:
  explicit RecordCursor(const std::vector<sweep::RunRecord>& records)
      : records_(&records) {}

  const sweep::RunRecord& next() {
    if (i_ >= records_->size()) {
      throw std::logic_error("bench: record cursor ran past the sweep");
    }
    return (*records_)[i_++];
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return i_ == records_->size();
  }

 private:
  const std::vector<sweep::RunRecord>* records_;
  std::size_t i_ = 0;
};

/// Emits the structured outputs for a finished sweep: BENCH_<name>.json
/// (always; --out overrides the path) and a CSV when --csv was given.
inline void emit_records(std::string_view bench_name, const Args& args,
                         int threads,
                         const std::vector<sweep::RunRecord>& records) {
  const std::string json_path =
      args.out_json.empty() ? "BENCH_" + std::string(bench_name) + ".json"
                            : args.out_json;
  try {
    sweep::write_file(json_path,
                      sweep::bench_json(bench_name, threads, records));
    std::printf("wrote %zu run records to %s\n", records.size(),
                json_path.c_str());
    if (!args.out_csv.empty()) {
      sweep::write_file(args.out_csv, sweep::bench_csv(records));
      std::printf("wrote CSV to %s\n", args.out_csv.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  std::printf("\n");
}

}  // namespace bench
