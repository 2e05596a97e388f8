// Multi-tenant serving study — the admission-controlled job server
// (src/serve/) driven at fleet scale:
//
//   machine model x tenant count x workload mix
//
// Every cell multiplexes one deterministic fleet (tenants x jobs-per-tenant
// CPU-Free jobs, drawn from the counter-based RNG) onto ONE shared machine:
// arrivals are open-loop Poisson by default, admission is FIFO under the
// cooperative occupancy cap, and co-resident tenants contend on the shared
// link ledger. Every job is verified exactly against its serial reference,
// and compared against the identical job alone on an idle machine, so the
// per-cell slowdown/fairness/SLO columns measure *interference*, not noise.
//
// Expected shape: on the hgx crossbar (dedicated lanes per device pair)
// disjoint slices barely interfere (mean slowdown ~1x); on dgx_pcie and the
// two-node machine, slices that straddle a switch group or the NIC share a
// trunk and the wide halo-heavy jobs show measurably >1x.
//
// Extra flags (all strict, fail fast on malformed input):
//   --tenants N                                 pin the tenant-count axis
//   --serve jobs=N,policy=first_fit|best_fit    jobs/tenant + placement
//   --arrival mode=open|closed,mean=F,seed=S,concurrency=K
//
// --faults marks tenant t0's jobs faulty (injection stays gated to t0's
// worlds; use resilience=retry or retry+degrade so t0 recovers — the exit
// gate requires every admitted job to complete and verify). The final
// SERVED/BROKEN line gates CI: exit is nonzero iff any admitted job failed
// to complete with exact numerics.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"
#include "solvers/sparse_cg.hpp"
#include "workloads/histogram/histogram.hpp"

namespace {

/// Salt for the job-shape stream: draws are f(seed, kShapeSalt + class,
/// tenant, job index) so fleets replay bit-identically per cell.
constexpr std::uint64_t kShapeSalt = 0x5e27e5a1febull;

struct MachineDef {
  const char* key;
  vgpu::MachineSpec (*make)();
};

const MachineDef kMachines[] = {
    {"hgx_a100", [] { return vgpu::MachineSpec::hgx_a100(8); }},
    {"dgx_pcie", [] { return vgpu::MachineSpec::dgx_pcie(8); }},
    {"multi_node", [] { return vgpu::MachineSpec::multi_node(2, 4); }},
};

struct MixDef {
  const char* key;
  std::vector<serve::JobKind> kinds;
};

const MixDef kMixes[] = {
    {"stencil", {serve::JobKind::kStencil}},
    {"stencil+cg", {serve::JobKind::kStencil, serve::JobKind::kCg}},
    {"all",
     {serve::JobKind::kStencil, serve::JobKind::kCg,
      serve::JobKind::kDacelite}},
    {"irregular",
     {serve::JobKind::kHistogram, serve::JobKind::kSparseCg}},
};

constexpr int kTenantAxis[] = {2, 8, 32};

/// Per-driver knobs parsed from --serve / --arrival / --tenants.
struct ServeArgs {
  int jobs_per_tenant = 4;
  serve::PlacePolicy policy = serve::PlacePolicy::kFirstFit;
  int tenants_pin = 0;  // 0 = sweep the full axis
  serve::ArrivalConfig arrival;

  static ServeArgs parse(int argc, char** argv) {
    ServeArgs a;
    a.arrival.mean_interarrival_us = 15.0;
    for (int i = 1; i < argc; ++i) {
      const std::string_view s = argv[i];
      if (s == "--tenants" && i + 1 < argc) {
        const std::string v = argv[++i];
        if (!bench::parse_int_strict(v, a.tenants_pin) || a.tenants_pin < 1) {
          bench::flag_usage_error("--tenants", "an integer >= 1", v);
        }
      } else if (s == "--serve" && i + 1 < argc) {
        bench::parse_kv_flag(
            "--serve", "jobs=N (>=1),policy=first_fit|best_fit", argv[++i],
            [&a](std::string_view key, const std::string& value) {
              if (key == "jobs") {
                return bench::parse_int_strict(value, a.jobs_per_tenant) &&
                       a.jobs_per_tenant >= 1;
              }
              if (key == "policy") {
                if (value == "first_fit") {
                  a.policy = serve::PlacePolicy::kFirstFit;
                } else if (value == "best_fit") {
                  a.policy = serve::PlacePolicy::kBestFit;
                } else {
                  return false;
                }
                return true;
              }
              return false;
            });
      } else if (s == "--arrival" && i + 1 < argc) {
        bench::parse_kv_flag(
            "--arrival",
            "mode=open|closed,mean=F (us, >0),seed=S,concurrency=K", argv[++i],
            [&a](std::string_view key, const std::string& value) {
              if (key == "mode") {
                if (value == "open") {
                  a.arrival.mode = serve::ArrivalConfig::Mode::kOpen;
                } else if (value == "closed") {
                  a.arrival.mode = serve::ArrivalConfig::Mode::kClosed;
                } else {
                  return false;
                }
                return true;
              }
              if (key == "mean") {
                return bench::parse_double_strict(
                           value, a.arrival.mean_interarrival_us) &&
                       a.arrival.mean_interarrival_us > 0.0;
              }
              if (key == "seed") {
                return bench::parse_u64_strict(value, a.arrival.seed);
              }
              if (key == "concurrency") {
                return bench::parse_int_strict(value, a.arrival.concurrency);
              }
              return false;
            });
      }
    }
    return a;
  }
};

/// The deterministic fleet one cell serves: jobs interleave tenants in
/// submission order (tenant-major round robin), shapes come from the
/// counter-based stream. Wide 4-device stencil jobs flip a coin between a
/// square compute-bound domain and a halo-heavy 2048x16 slab — the latter
/// is what exposes shared-trunk contention on the non-crossbar machines.
std::vector<serve::JobSpec> make_fleet(const MixDef& mix, int tenants,
                                       int jobs_per_tenant,
                                       std::uint64_t seed,
                                       bool tenant0_faulty) {
  static constexpr int kDevices[] = {1, 2, 4};
  static constexpr std::size_t kStencilN[] = {48, 64, 96};
  static constexpr std::size_t kCgN[] = {32, 48, 64};
  static constexpr std::size_t kHistBins[] = {61, 97, 193};
  static constexpr std::size_t kSparseN[] = {16, 24, 32};
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
      s.kind = mix.kinds[sim::stream_mix(seed, kShapeSalt, tu, ju) %
                         mix.kinds.size()];
      s.devices =
          kDevices[sim::stream_mix(seed, kShapeSalt + 1, tu, ju) % 3];
      const std::uint64_t shape =
          sim::stream_mix(seed, kShapeSalt + 2, tu, ju);
      switch (s.kind) {
        case serve::JobKind::kStencil:
          if (s.devices == 4 && (shape & 1) != 0) {
            s.nx = 4096;  // halo-heavy wide slab: comm dominates per iter
            s.ny = 16;
            s.iterations = 12;
          } else {
            s.nx = s.ny = kStencilN[shape % 3];
            s.iterations = ((shape >> 8) & 1) != 0 ? 10 : 6;
          }
          break;
        case serve::JobKind::kCg:
          s.nx = s.ny = kCgN[shape % 3];
          s.iterations = ((shape >> 8) & 1) != 0 ? 12 : 8;
          break;
        case serve::JobKind::kDacelite:
          s.nx = s.ny = (shape & 1) != 0 ? 48 : 24;
          s.iterations = ((shape >> 8) & 1) != 0 ? 10 : 6;
          break;
        case serve::JobKind::kHistogram:
          s.nx = kHistBins[shape % 3];  // bins (owner-partitioned)
          s.ny = 192;                   // keys per PE per round
          s.skew = static_cast<int>((shape >> 4) & 3);
          s.iterations = ((shape >> 8) & 1) != 0 ? 6 : 4;
          s.threads_per_block = 128;
          break;
        case serve::JobKind::kSparseCg:
          s.nx = s.ny = kSparseN[shape % 3];
          s.imbalance = ((shape >> 4) & 1) != 0 ? 4.0 : 1.0;
          s.iterations = ((shape >> 8) & 1) != 0 ? 20 : 12;
          break;
      }
      s.faulty = tenant0_faulty && t == 0;
      jobs.push_back(std::move(s));
    }
  }
  return jobs;
}

/// One cell end to end: serve the fleet on a fresh shared machine and fold
/// the fleet metrics into the sweep record. The full per-job report is
/// written once into `report_out` (pre-sized slot, so concurrent cells
/// never touch the same element).
sweep::RunResult run_cell(const bench::Args& args, const ServeArgs& sargs,
                          const MachineDef& m, const MixDef& mix, int tenants,
                          std::uint64_t cell_seed,
                          serve::ServeReport* report_out,
                          sim::Observer* obs = nullptr) {
  serve::ServeConfig cfg;
  cfg.machine = args.with_faults(m.make());
  cfg.arrival = sargs.arrival;
  cfg.arrival.seed = cell_seed;
  cfg.policy = sargs.policy;
  cfg.observer = obs;
  cfg.compute_isolated = obs == nullptr;  // skip baselines under --check
  serve::ServeReport rep = serve::run_serve(
      cfg, make_fleet(mix, tenants, sargs.jobs_per_tenant, cell_seed,
                      args.faults.enabled()));

  sweep::RunResult res;
  res.spec = cfg.machine;
  const serve::FleetMetrics& f = rep.fleet;
  res.set("jobs", f.jobs);
  res.set("completed", f.completed);
  res.set("verified", f.verified);
  res.set("rejected", f.rejected);
  res.set("slo_met", f.slo_met);
  res.set("mean_queue_wait_us", f.mean_queue_wait_us);
  res.set("mean_slowdown", f.mean_slowdown);
  res.set("max_slowdown", f.max_slowdown);
  res.set("jain_fairness", f.jain_fairness);
  res.set("fleet_makespan_us", f.fleet_makespan_us);
  // A fleet cell mixes job kinds; per-job records below carry each job's
  // own workload tag and realized partition imbalance.
  bench::tag_workload(res, "serve_fleet", 1.0);
  if (report_out != nullptr) *report_out = std::move(rep);
  return res;
}

/// Realized partition-imbalance factor of one job's data split across its
/// device slice (what the per-job bench records are tagged with).
double job_imbalance(const serve::JobSpec& s) {
  switch (s.kind) {
    case serve::JobKind::kStencil:
    case serve::JobKind::kCg:
      return bench::slab_imbalance(s.ny, s.devices);
    case serve::JobKind::kDacelite:
      return 1.0;  // domain must divide by the process grid
    case serve::JobKind::kHistogram: {
      workloads::HistogramConfig cfg;
      cfg.bins = s.nx;
      cfg.keys_per_round = s.ny;
      cfg.rounds = s.iterations;
      cfg.skew = s.skew;
      return workloads::histogram_imbalance(cfg, s.devices);
    }
    case serve::JobKind::kSparseCg: {
      solvers::SparseCgConfig cfg;
      cfg.nx = s.nx;
      cfg.ny = s.ny;
      cfg.imbalance = s.imbalance;
      return solvers::sparse_partition_imbalance(cfg, s.devices);
    }
  }
  return 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::Args::parse(argc, argv, {},
                         {"--tenants", "--serve", "--arrival"});
  const ServeArgs sargs = ServeArgs::parse(argc, argv);
  if (args.topo) {
    for (const MachineDef& m : kMachines) {
      bench::print_topology(m.make(), m.key);
    }
    return 0;
  }

  std::vector<int> tenant_axis(std::begin(kTenantAxis),
                               std::end(kTenantAxis));
  if (sargs.tenants_pin > 0) tenant_axis = {sargs.tenants_pin};

  if (args.check) {
    // Small closed-loop fleets, one per machine model, with the
    // race/deadlock detector observing the SHARED machine (its findings
    // carry job labels via the server's job map). All three kinds
    // co-resident is the interesting case; --faults makes t0 faulty.
    std::vector<bench::CheckCase> cases;
    ServeArgs small = sargs;
    small.jobs_per_tenant = 3;
    small.arrival.mode = serve::ArrivalConfig::Mode::kClosed;
    small.arrival.concurrency = 3;
    for (const MachineDef& m : kMachines) {
      std::string label = m.key;
      label += "/all/t2";
      cases.push_back({std::move(label), [&args, small, &m](sim::Observer* o) {
                         (void)run_cell(args, small, m, kMixes[2], 2,
                                        /*cell_seed=*/7, nullptr, o);
                       }});
    }
    return bench::run_check(cases);
  }

  bench::print_header("Multi-tenant serving",
                      "machine model x tenant count x workload mix");
  bench::print_calibration(vgpu::MachineSpec::hgx_a100(8));
  std::printf(
      "arrival: %s, mean %.1f us, seed %llu, concurrency %d; policy %s; "
      "%d job(s)/tenant\n",
      serve::name(sargs.arrival.mode), sargs.arrival.mean_interarrival_us,
      static_cast<unsigned long long>(sargs.arrival.seed),
      sargs.arrival.concurrency, serve::name(sargs.policy),
      sargs.jobs_per_tenant);
  bench::print_faults(args.faults);
  if (args.faults.enabled()) {
    std::printf("faulty tenant: t0 (injection gated to t0's worlds)\n");
  }
  std::printf("\n");

  // Cell order (machine-major, then tenants, then mix) is shared by the
  // add loop, the report side-table and the printed tables below.
  const std::size_t n_cells =
      std::size(kMachines) * tenant_axis.size() * std::size(kMixes);
  std::vector<serve::ServeReport> reports(n_cells);

  sweep::Executor ex(args.sweep_options());
  std::size_t cell = 0;
  for (const MachineDef& m : kMachines) {
    for (int tenants : tenant_axis) {
      for (const MixDef& mix : kMixes) {
        std::string id = m.key;
        id += "/t";
        id += std::to_string(tenants);
        id += '/';
        id += mix.key;
        const std::uint64_t cell_seed = sim::stream_mix(
            sargs.arrival.seed, static_cast<std::uint64_t>(&m - kMachines),
            static_cast<std::uint64_t>(tenants),
            static_cast<std::uint64_t>(&mix - kMixes));
        serve::ServeReport* slot = &reports[cell++];
        ex.add(std::move(id),
               {{"machine", m.key},
                {"mix", mix.key},
                {"tenants", std::to_string(tenants)},
                {"jobs_per_tenant", std::to_string(sargs.jobs_per_tenant)},
                {"policy", serve::name(sargs.policy)}},
               [&args, &sargs, &m, &mix, tenants, cell_seed, slot] {
                 return run_cell(args, sargs, m, mix, tenants, cell_seed,
                                 slot);
               });
      }
    }
  }

  const int threads = ex.resolved_threads();
  std::vector<sweep::RunRecord> records = ex.run();
  bench::RecordCursor cur(records);

  int total_jobs = 0;
  int broken = 0;  // admitted jobs that failed to complete + verify
  for (const MachineDef& m : kMachines) {
    std::printf("%s\n", m.key);
    std::printf("  %-22s %5s %5s %5s %10s %8s %8s %6s %5s\n", "cell", "jobs",
                "ver", "rej", "wait us", "mean sd", "max sd", "jain", "slo%");
    double mach_sd_sum = 0.0, mach_sd_max = 0.0;
    int mach_cells = 0;
    for (int tenants : tenant_axis) {
      for (const MixDef& mix : kMixes) {
        const sweep::RunRecord& rec = cur.next();
        std::string cell_key = "t";
        cell_key += std::to_string(tenants);
        cell_key += '/';
        cell_key += mix.key;
        const int jobs = static_cast<int>(rec.value("jobs"));
        const int verified = static_cast<int>(rec.value("verified"));
        const int completed = static_cast<int>(rec.value("completed"));
        const int rejected = static_cast<int>(rec.value("rejected"));
        total_jobs += jobs;
        broken += (jobs - rejected) - completed;  // stuck or crashed
        broken += completed - verified;           // finished, wrong numerics
        std::printf("  %-22s %5d %5d %5d %10.1f %8.3f %8.3f %6.3f %5.1f\n",
                    cell_key.c_str(), jobs, verified, rejected,
                    rec.value("mean_queue_wait_us"),
                    rec.value("mean_slowdown"), rec.value("max_slowdown"),
                    rec.value("jain_fairness"),
                    jobs > rejected
                        ? 100.0 * rec.value("slo_met") / (jobs - rejected)
                        : 0.0);
        mach_sd_sum += rec.value("mean_slowdown");
        mach_sd_max = std::max(mach_sd_max, rec.value("max_slowdown"));
        ++mach_cells;
      }
    }
    std::printf("  contention: mean slowdown %.3fx, max %.3fx\n\n",
                mach_cells > 0 ? mach_sd_sum / mach_cells : 0.0, mach_sd_max);
  }

  // Append one record per job (id/tenant attribution included) after the
  // per-cell fleet records, same cell order, so the JSON carries the full
  // per-job story the fairness/SLO plots need.
  std::size_t next_index = records.size();
  cell = 0;
  for (const MachineDef& m : kMachines) {
    for (int tenants : tenant_axis) {
      for (const MixDef& mix : kMixes) {
        const serve::ServeReport& rep = reports[cell++];
        for (const serve::JobRecord& jr : rep.jobs) {
          sweep::RunRecord rec;
          rec.index = next_index++;
          rec.id = m.key;
          rec.id += "/t";
          rec.id += std::to_string(tenants);
          rec.id += '/';
          rec.id += mix.key;
          rec.id += "/job";
          rec.id += std::to_string(jr.spec.id);
          rec.params = {{"machine", m.key},
                        {"mix", mix.key},
                        {"tenants", std::to_string(tenants)},
                        {"job_id", std::to_string(jr.spec.id)},
                        {"tenant", jr.spec.tenant},
                        {"kind", serve::name(jr.spec.kind)},
                        {"devices", std::to_string(jr.spec.devices)}};
          rec.out.spec = args.with_faults(m.make());
          bench::tag_workload(rec.out, serve::name(jr.spec.kind),
                              job_imbalance(jr.spec));
          rec.out.set("arrival_us", sim::to_usec(jr.out.arrival));
          rec.out.set("admit_us", sim::to_usec(jr.out.admit));
          rec.out.set("end_us", sim::to_usec(jr.out.end));
          rec.out.set("queue_wait_us", sim::to_usec(jr.out.queue_wait()));
          rec.out.set("makespan_us", sim::to_usec(jr.out.makespan()));
          rec.out.set("isolated_us", jr.isolated_us);
          rec.out.set("slowdown", jr.slowdown);
          rec.out.set("admitted", jr.out.admitted ? 1.0 : 0.0);
          rec.out.set("verified", jr.out.verified ? 1.0 : 0.0);
          rec.out.set("slo_met", jr.slo_met ? 1.0 : 0.0);
          rec.out.set("blocks_per_device", jr.out.blocks_per_device);
          rec.out.set("first_device", jr.out.first_device);
          rec.out.note("detail", jr.out.detail);
          records.push_back(std::move(rec));
        }
      }
    }
  }

  std::printf("%s: %d job(s) across %zu cell(s), %d broken\n\n",
              broken == 0 ? "SERVED" : "BROKEN", total_jobs, n_cells, broken);

  bench::emit_records("fig_multitenant", args, threads, records);
  return broken == 0 ? 0 : 1;
}
