// Failover study — checkpoint/restart recovery in the multi-tenant job
// server when a device fail-stops mid-run:
//
//   kill-one-device x checkpoint interval
//
// Every cell serves a deterministic all-stencil fleet (the checkpoint-capable
// kind) on ONE shared multi_node machine whose fault plane kills a device the
// first time a resident persistent kernel reaches the kill iteration. Dead
// kernels skip-join to the end and drain cooperatively, survivors' watchdog
// waits escalate into a job-level verdict, and the server releases each
// aborted job's slice, fences the dead device out of the admission
// controller, and re-admits the job onto surviving devices from its newest
// complete checkpoint. Every recovered job must land BITWISE on the unfailed
// serial reference — recovery that only "mostly" restores state is a bug,
// not a data point.
//
// Expected shape: tighter checkpoint intervals lose/replay fewer iterations
// (higher goodput under failure) but pay more simulated checkpoint DRAM
// drain in the failure-free portion of the run; the fleet makespan columns
// show that trade directly.
//
// Extra flags (all strict, fail fast on malformed input):
//   --tenants N                          tenant count (default 3)
//   --serve jobs=N                       jobs per tenant (default 3)
//   --hard-faults kill_device=D,at_iter=K[,ckpt=N]
//       overrides the default kill (device 1, iteration 3); ckpt=N pins the
//       checkpoint-interval axis to {N}.
//
// The final RECOVERED/BROKEN line gates CI: exit is nonzero iff any job
// failed to complete with exact numerics, or a kill cell never exercised a
// failover (a kill that never fires would silently gut the figure).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"

namespace {

/// Salt for the job-shape stream (distinct from fig_multitenant's, so the
/// two figures' fleets are unrelated draws).
constexpr std::uint64_t kShapeSalt = 0xfa110feedull;

/// Checkpoint-interval axis (iterations between snapshots).
constexpr int kCkptAxis[] = {1, 2, 4, 8};

struct FailoverArgs {
  int tenants = 3;
  int jobs_per_tenant = 3;
  serve::ArrivalConfig arrival;

  static FailoverArgs parse(int argc, char** argv) {
    FailoverArgs a;
    a.arrival.mean_interarrival_us = 20.0;
    for (int i = 1; i < argc; ++i) {
      const std::string_view s = argv[i];
      if (s == "--tenants" && i + 1 < argc) {
        const std::string v = argv[++i];
        if (!bench::parse_int_strict(v, a.tenants) || a.tenants < 1) {
          bench::flag_usage_error("--tenants", "an integer >= 1", v);
        }
      } else if (s == "--serve" && i + 1 < argc) {
        bench::parse_kv_flag(
            "--serve", "jobs=N (>=1)", argv[++i],
            [&a](std::string_view key, const std::string& value) {
              if (key == "jobs") {
                return bench::parse_int_strict(value, a.jobs_per_tenant) &&
                       a.jobs_per_tenant >= 1;
              }
              return false;
            });
      }
    }
    return a;
  }
};

/// The deterministic all-stencil fleet one cell serves. Stencil is the
/// restartable kind; iterations are chosen to comfortably straddle the kill
/// iteration so affected jobs really lose (and recover) progress.
std::vector<serve::JobSpec> make_fleet(int tenants, int jobs_per_tenant,
                                       std::uint64_t seed) {
  static constexpr int kDevices[] = {1, 2, 4};
  static constexpr std::size_t kStencilN[] = {48, 64, 96};
  std::vector<serve::JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(tenants) *
               static_cast<std::size_t>(jobs_per_tenant));
  int id = 0;
  for (int j = 0; j < jobs_per_tenant; ++j) {
    for (int t = 0; t < tenants; ++t) {
      const std::uint64_t tu = static_cast<std::uint64_t>(t);
      const std::uint64_t ju = static_cast<std::uint64_t>(j);
      serve::JobSpec s;
      s.id = id++;
      s.tenant = "t";
      s.tenant += std::to_string(t);
      s.kind = serve::JobKind::kStencil;
      s.devices = kDevices[sim::stream_mix(seed, kShapeSalt, tu, ju) % 3];
      const std::uint64_t shape = sim::stream_mix(seed, kShapeSalt + 1, tu, ju);
      s.nx = s.ny = kStencilN[shape % 3];
      s.iterations = ((shape >> 8) & 1) != 0 ? 12 : 8;
      // Failures inflate makespans by design; SLO attainment is not what
      // this figure measures.
      s.slo_factor = 64.0;
      jobs.push_back(std::move(s));
    }
  }
  return jobs;
}

struct Cell {
  std::string key;
  bool kill = false;
  int checkpoint_every = 0;
};

sweep::RunResult run_cell(const FailoverArgs& fargs, const Cell& cell,
                          const fault::Config& kill_faults,
                          std::uint64_t cell_seed,
                          serve::ServeReport* report_out,
                          sim::Observer* obs = nullptr) {
  vgpu::MachineSpec spec = vgpu::MachineSpec::multi_node(2, 4);
  spec.faults = kill_faults;
  if (!cell.kill) spec.faults.hard.clear();  // baseline keeps transients only

  serve::ServeConfig cfg;
  cfg.machine = spec;
  cfg.arrival = fargs.arrival;
  cfg.arrival.seed = cell_seed;
  cfg.checkpoint_every = cell.checkpoint_every;
  cfg.observer = obs;
  cfg.compute_isolated = false;  // interference is fig_multitenant's story
  serve::ServeReport rep = serve::run_serve(
      cfg, make_fleet(fargs.tenants, fargs.jobs_per_tenant, cell_seed));

  sweep::RunResult res;
  res.spec = cfg.machine;
  const serve::FleetMetrics& f = rep.fleet;
  res.set("jobs", f.jobs);
  res.set("completed", f.completed);
  res.set("verified", f.verified);
  res.set("rejected", f.rejected);
  res.set("failovers", f.failovers);
  res.set("jobs_lost", f.jobs_lost);
  res.set("requeues", f.requeues);
  res.set("mean_recovery_latency_us", f.mean_recovery_latency_us);
  res.set("lost_iterations", static_cast<double>(f.lost_iterations));
  res.set("replayed_iterations", static_cast<double>(f.replayed_iterations));
  res.set("goodput", f.goodput);
  res.set("fleet_makespan_us", f.fleet_makespan_us);
  bench::tag_workload(res, "serve_failover", 1.0);
  if (report_out != nullptr) *report_out = std::move(rep);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::Args::parse(argc, argv, {.checkpoint = true},
                         {"--tenants", "--serve"});
  const FailoverArgs fargs = FailoverArgs::parse(argc, argv);
  if (args.topo) {
    bench::print_topology(vgpu::MachineSpec::multi_node(2, 4), "multi_node");
    return 0;
  }

  // The kill every failure cell runs under: --hard-faults if given, else
  // device 1 dies the first time a resident kernel reaches iteration 3.
  fault::Config kill_faults = args.faults;
  if (!kill_faults.hard_enabled()) {
    fault::HardFault h;
    h.device = 1;
    h.at = 3;
    kill_faults.hard.push_back(h);
    kill_faults.classes |= fault::kClassDeviceDead;
  }

  std::vector<int> ckpt_axis(std::begin(kCkptAxis), std::end(kCkptAxis));
  if (args.hard_checkpoint_every > 0) {
    ckpt_axis = {args.hard_checkpoint_every};
  }

  std::vector<Cell> cells;
  cells.push_back({"baseline", /*kill=*/false, 0});
  for (int every : ckpt_axis) {
    std::string key = "kill/ckpt";
    key += std::to_string(every);
    cells.push_back({std::move(key), /*kill=*/true, every});
  }

  if (args.check) {
    // One small kill cell under the race/deadlock detector: the whole
    // abort/requeue/restore path runs with the checker watching the SHARED
    // machine.
    std::vector<bench::CheckCase> cases;
    FailoverArgs small = fargs;
    small.tenants = 2;
    small.jobs_per_tenant = 2;
    const Cell c{"kill/ckpt2", true, 2};
    cases.push_back(
        {"multi_node/kill/ckpt2",
         [small, c, &kill_faults](sim::Observer* o) {
           (void)run_cell(small, c, kill_faults, /*cell_seed=*/11, nullptr,
                          o);
         }});
    return bench::run_check(cases);
  }

  bench::print_header("Failover under device fail-stop",
                      "kill-one-device x checkpoint interval");
  bench::print_calibration(vgpu::MachineSpec::multi_node(2, 4));
  bench::print_faults(kill_faults);
  std::printf(
      "fleet: %d tenant(s) x %d stencil job(s), open arrivals mean %.1f us\n\n",
      fargs.tenants, fargs.jobs_per_tenant, fargs.arrival.mean_interarrival_us);

  std::vector<serve::ServeReport> reports(cells.size());
  sweep::Executor ex(args.sweep_options());
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& cell = cells[ci];
    const std::uint64_t cell_seed =
        sim::stream_mix(fargs.arrival.seed, kShapeSalt + 7,
                        static_cast<std::uint64_t>(ci), 0);
    serve::ServeReport* slot = &reports[ci];
    ex.add(std::string(cell.key),
           {{"machine", "multi_node"},
            {"kill", cell.kill ? "1" : "0"},
            {"checkpoint_every", std::to_string(cell.checkpoint_every)},
            {"tenants", std::to_string(fargs.tenants)},
            {"jobs_per_tenant", std::to_string(fargs.jobs_per_tenant)}},
           [&fargs, &cell, &kill_faults, cell_seed, slot] {
             return run_cell(fargs, cell, kill_faults, cell_seed, slot);
           });
  }

  const int threads = ex.resolved_threads();
  std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  int broken = 0;
  std::printf("  %-14s %5s %5s %5s %4s %4s %10s %8s %8s %8s %12s\n", "cell",
              "jobs", "ver", "lost", "fo", "rq", "recov us", "lost it",
              "replay", "goodput", "makespan us");
  for (const Cell& cell : cells) {
    const sweep::RunRecord& rec = cur.next();
    const int jobs = static_cast<int>(rec.value("jobs"));
    const int verified = static_cast<int>(rec.value("verified"));
    const int failovers = static_cast<int>(rec.value("failovers"));
    // Gate: EVERY job must finish verified (recovered runs are bitwise
    // checked against the unfailed reference), and a kill cell that never
    // failed over measured nothing.
    broken += jobs - verified;
    if (cell.kill && failovers < 1) ++broken;
    std::printf(
        "  %-14s %5d %5d %5d %4d %4d %10.1f %8.0f %8.0f %8.3f %12.1f\n",
        cell.key.c_str(), jobs, verified,
        static_cast<int>(rec.value("jobs_lost")), failovers,
        static_cast<int>(rec.value("requeues")),
        rec.value("mean_recovery_latency_us"), rec.value("lost_iterations"),
        rec.value("replayed_iterations"), rec.value("goodput"),
        rec.value("fleet_makespan_us"));
  }
  std::printf("\n");

  // One record per job after the per-cell fleet records (same cell order):
  // the recovery timeline each job lived through.
  std::size_t next_index = records.size();
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const serve::ServeReport& rep = reports[ci];
    for (const serve::JobRecord& jr : rep.jobs) {
      sweep::RunRecord rec;
      rec.index = next_index++;
      rec.id = cells[ci].key;
      rec.id += "/job";
      rec.id += std::to_string(jr.spec.id);
      rec.params = {{"cell", cells[ci].key},
                    {"job_id", std::to_string(jr.spec.id)},
                    {"tenant", jr.spec.tenant},
                    {"devices", std::to_string(jr.spec.devices)}};
      rec.out.spec = vgpu::MachineSpec::multi_node(2, 4);
      bench::tag_workload(rec.out, "stencil", 1.0);
      rec.out.set("arrival_us", sim::to_usec(jr.out.arrival));
      rec.out.set("admit_us", sim::to_usec(jr.out.admit));
      rec.out.set("end_us", sim::to_usec(jr.out.end));
      rec.out.set("makespan_us", sim::to_usec(jr.out.makespan()));
      rec.out.set("verified", jr.out.verified ? 1.0 : 0.0);
      rec.out.set("attempts", jr.out.attempts);
      rec.out.set("lost", jr.out.lost ? 1.0 : 0.0);
      rec.out.set("restarted_from", jr.out.restarted_from);
      rec.out.set("aborted_at_us", sim::to_usec(jr.out.aborted_at));
      rec.out.set("resumed_at_us", sim::to_usec(jr.out.resumed_at));
      rec.out.set("recovery_latency_us",
                  sim::to_usec(jr.out.recovery_latency()));
      rec.out.set("lost_iterations",
                  static_cast<double>(jr.out.lost_iterations));
      rec.out.set("replayed_iterations",
                  static_cast<double>(jr.out.replayed_iterations));
      rec.out.set("first_device", jr.out.first_device);
      rec.out.note("detail", jr.out.detail);
      records.push_back(std::move(rec));
    }
  }

  std::printf("%s: %zu cell(s), %d broken\n\n",
              broken == 0 ? "RECOVERED" : "BROKEN", cells.size(), broken);

  bench::emit_records("fig_failover", args, threads, records);
  return broken == 0 ? 0 : 1;
}
