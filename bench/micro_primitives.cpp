// Microbenchmarks of the simulation substrate itself: engine event
// throughput, synchronization primitives, stream ops at three queue depths,
// timer reschedule churn, transfer accounting and a full small stencil
// run. These measure the SIMULATOR's wall-clock
// performance (how fast experiments run), not simulated time — the
// "items_per_sec" values are host-side throughput, the only nondeterministic
// numbers any driver reports. The simulated end time of each workload is
// still captured in metrics.total and stays bit-identical across runs.
//
// Each workload runs --repeats times inside one sweep job and reports the
// fastest repetition, mirroring the min-of-N protocol of the timing benches.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "sim/combinators.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "stencil/problems.hpp"
#include "stencil/runner.hpp"
#include "stencil/variants.hpp"
#include "vgpu/host.hpp"
#include "vgpu/machine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

sim::Task delay_loop(sim::Engine& eng, int n) {
  for (int i = 0; i < n; ++i) co_await eng.delay(10);
}

sim::Task ping(sim::Flag& a, sim::Flag& b, int n) {
  for (int i = 1; i <= n; ++i) {
    a.set(i);
    co_await b.wait_geq(i);
  }
}

sim::Task pong(sim::Flag& a, sim::Flag& b, int n) {
  for (int i = 1; i <= n; ++i) {
    co_await a.wait_geq(i);
    b.set(i);
  }
}

/// The link ledger's timer pattern: every step cancels the pending wake
/// and arms a new one, and only some wakes ever fire.
sim::Task reschedule_loop(sim::Engine& eng, sim::TimerToken& wake, int n) {
  for (int i = 0; i < n; ++i) {
    wake.cancel();
    wake = eng.schedule_callback([] {}, 50 + i % 13);
    co_await eng.delay(i % 3 == 0 ? 60 : 5);
  }
}

/// Runs `workload` (which returns the number of simulated items processed
/// and fills `sim_end`) `repeats` times; reports the best items/sec.
template <typename Fn>
sweep::RunResult measure(std::string_view name, int repeats,
                         double items_per_rep, const vgpu::MachineSpec& spec,
                         Fn&& workload) {
  sweep::RunResult res;
  res.spec = spec;
  // Substrate microbenchmarks have no data partition: imbalance is 1.0.
  bench::tag_workload(res, name, 1.0);
  double best_sec = 1e300;
  sim::Nanos sim_end = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    sim_end = workload();
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    if (sec < best_sec) best_sec = sec;
  }
  res.metrics.total = sim_end;
  res.set("items_per_sec", best_sec > 0.0 ? items_per_rep / best_sec : 0.0);
  res.set("best_wall_ms", best_sec * 1e3);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, {.repeats = true});
  if (args.topo) {
    bench::print_topology(vgpu::MachineSpec::hgx_a100(4), "hgx_a100(4)");
    return 0;
  }
  if (args.check) {
    // The end-to-end workload of this bench, under the checker, with middle
    // PEs present (4 GPUs) so both-neighbor protocols are exercised.
    std::vector<bench::CheckCase> cases;
    for (stencil::Variant v :
         {stencil::Variant::kCpuFree, stencil::Variant::kBaselineCopy}) {
      cases.push_back({std::string("full_stencil_run/") +
                           std::string(stencil::variant_name(v)),
                       [v, &args](sim::Observer* o) {
                         stencil::Jacobi2D p;
                         p.nx = 128;
                         p.ny = 128;
                         stencil::StencilConfig cfg;
                         cfg.iterations = 8;
                         cfg.persistent_blocks = 12;
                         cfg.observer = o;
                         (void)stencil::run_jacobi2d(
                             v,
                             args.with_faults(vgpu::MachineSpec::hgx_a100(4)),
                             p, cfg);
                       }});
    }
    return bench::run_check(cases);
  }
  bench::print_header("Micro", "simulator substrate wall-clock throughput");
  // The full-run workload exercises one composition end to end.
  bench::print_policies(
      {{stencil::variant_name(stencil::Variant::kCpuFree),
        stencil::plan_for(stencil::Variant::kCpuFree)}});
  bench::print_faults(args.faults);
  const int repeats = args.repeats > 1 ? args.repeats : 3;

  sweep::Executor ex(args.sweep_options());

  for (const int n : {1024, 16384}) {
    ex.add("engine_delay_events/n=" + std::to_string(n),
           {{"workload", "engine_delay_events"}, {"n", std::to_string(n)}},
           [n, repeats] {
             return measure("engine_delay_events", repeats, n,
                            vgpu::MachineSpec::hgx_a100(1), [n] {
               sim::Engine eng;
               eng.spawn(delay_loop(eng, n));
               eng.run();
               return eng.now();
             });
           });
  }

  ex.add("flag_ping_pong/n=4096",
         {{"workload", "flag_ping_pong"}, {"n", "4096"}}, [repeats] {
           constexpr int n = 4096;
           return measure("flag_ping_pong", repeats, 2.0 * n,
                          vgpu::MachineSpec::hgx_a100(1), [] {
             sim::Engine eng;
             sim::Flag a(eng, 0), b(eng, 0);
             eng.spawn(ping(a, b, n));
             eng.spawn(pong(a, b, n));
             eng.run();
             return eng.now();
           });
         });

  // One stream holding n queued ops: per-op host cost across queue depths.
  for (const int n : {1024, 4096, 16384}) {
    ex.add("stream_ops/n=" + std::to_string(n),
           {{"workload", "stream_ops"}, {"n", std::to_string(n)}},
           [n, repeats, &args] {
             const vgpu::MachineSpec spec =
                 args.with_faults(vgpu::MachineSpec::hgx_a100(1));
             return measure("stream_ops", repeats, n, spec, [n, &spec] {
               vgpu::Machine m(spec);
               vgpu::Stream& s = m.device(0).create_stream();
               for (int i = 0; i < n; ++i) {
                 s.enqueue(
                     [&m]() -> sim::Task { co_await m.engine().delay(100); });
               }
               m.engine().run();
               return m.engine().now();
             });
           });
  }

  ex.add("timer_churn/n=16384", {{"workload", "timer_churn"}, {"n", "16384"}},
         [repeats] {
           constexpr int n = 16384;
           return measure("timer_churn", repeats, n,
                          vgpu::MachineSpec::hgx_a100(1), [] {
             sim::Engine eng;
             sim::TimerToken wake;
             eng.spawn(reschedule_loop(eng, wake, n));
             eng.run();
             return eng.now();
           });
         });

  ex.add("transfer_accounting/n=1000",
         {{"workload", "transfer_accounting"}, {"n", "1000"}},
         [repeats, &args] {
           const vgpu::MachineSpec spec =
               args.with_faults(vgpu::MachineSpec::hgx_a100(2));
           return measure("transfer_accounting", repeats, 1000, spec, [&spec] {
             vgpu::Machine m(spec);
             m.enable_all_peer_access();
             m.engine().spawn([](vgpu::Machine& mm) -> sim::Task {
               for (int i = 0; i < 1000; ++i) {
                 co_await mm.transfer(0, 1, 4096,
                                      vgpu::TransferKind::kDeviceInitiated, 0,
                                      "t");
               }
             }(m));
             m.engine().run();
             return m.engine().now();
           });
         });

  ex.add("full_stencil_run/256x256x4gpus",
         {{"workload", "full_stencil_run"}, {"gpus", "4"}},
         [repeats, &args] {
           const vgpu::MachineSpec spec =
               args.with_faults(vgpu::MachineSpec::hgx_a100(4));
           return measure("full_stencil_run", repeats, 1, spec, [&spec] {
             stencil::Jacobi2D p;
             p.nx = 256;
             p.ny = 256;
             stencil::StencilConfig cfg;
             cfg.iterations = 50;
             cfg.functional = false;
             const auto out = stencil::run_jacobi2d(
                 stencil::Variant::kCpuFree, spec, p, cfg);
             return out.result.metrics.total;
           });
         });

  const int threads = ex.resolved_threads();
  const std::vector<sweep::RunRecord> records = ex.run();

  std::printf("%-36s %16s %14s\n", "workload", "items/sec", "best wall ms");
  for (const sweep::RunRecord& r : records) {
    std::printf("%-36s %16.0f %14.3f\n", r.id.c_str(),
                r.value("items_per_sec"), r.value("best_wall_ms"));
  }
  std::printf("\n");

  bench::emit_records("micro_primitives", args, threads, records);
  return 0;
}
