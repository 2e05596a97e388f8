#include "tune/tuner.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "check/detector.hpp"
#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "exec/policy.hpp"
#include "sweep/executor.hpp"
#include "tune/rollout.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

namespace tune {

namespace {

/// Builds the workload's SDFG partitioned for `cand` and replays the
/// candidate recipe over it. 1D workloads have a single ring decomposition;
/// 2D ones honour the candidate's px.
dacelite::Sdfg build_sdfg(const Workload& w, const Candidate& cand) {
  if (w.kind == WorkloadKind::kJacobi1D) {
    auto prog = dacelite::make_jacobi1d(w.gx, w.ranks, w.iterations);
    dacelite::Pipeline().apply(prog.sdfg, cand.recipe);
    return std::move(prog.sdfg);
  }
  auto prog =
      dacelite::make_jacobi2d(w.gx, w.gy, w.ranks, w.iterations, cand.px);
  dacelite::Pipeline().apply(prog.sdfg, cand.recipe);
  return std::move(prog.sdfg);
}

sim::Nanos predict_candidate(const Workload& w, const vgpu::MachineSpec& spec,
                             const Candidate& cand) {
  const dacelite::Sdfg sdfg = build_sdfg(w, cand);
  dacelite::ExecOptions eo = dacelite::exec_options(cand.recipe);
  eo.persistent_blocks = exec::resolve_persistent_blocks(
      eo.persistent_blocks, spec, eo.threads_per_block);
  return predict_total(sdfg, spec, eo, w.iterations);
}

/// One full simulated validation run: transform, execute on the persistent
/// backend, verify the gathered result against the serial reference, report
/// the detector verdict. Failures (validation errors, deadlocks) become an
/// unverified record instead of aborting the batch.
sweep::RunResult validate_candidate(const Workload& w,
                                    const vgpu::MachineSpec& spec,
                                    const TuneOptions& opt,
                                    const Candidate& cand, sim::Nanos predicted,
                                    const std::vector<double>& reference,
                                    CandidateResult& out) {
  sweep::RunResult res;
  res.spec = spec;
  // Tuner workloads are dacelite SDFGs; their domains divide evenly by the
  // process grid, so the partition is exactly balanced.
  res.workload = "dacelite";
  res.partition_imbalance = 1.0;
  out.validated = true;
  out.check_clean = true;

  check::Detector det;
  auto execute = [&](auto& prog) {
    dacelite::Pipeline().apply(prog.sdfg, cand.recipe);
    vgpu::Machine m(spec);
    if (opt.check) m.engine().set_observer(&det);
    vshmem::World world(m);
    dacelite::ProgramData data(world, prog.sdfg, /*functional=*/true);
    const dacelite::ExecResult r = dacelite::execute_persistent(
        m, world, data, prog.sdfg, dacelite::exec_options(cand.recipe));
    out.verified = prog.gather(data) == reference;
    out.measured = r.metrics.total;
    out.persistent_blocks = r.persistent_blocks;
    out.put_expansion = r.put_expansion;
    out.metrics = r.metrics;
    res.metrics = r.metrics;
  };
  try {
    if (w.kind == WorkloadKind::kJacobi1D) {
      auto prog = dacelite::make_jacobi1d(w.gx, w.ranks, w.iterations);
      execute(prog);
    } else {
      auto prog =
          dacelite::make_jacobi2d(w.gx, w.gy, w.ranks, w.iterations, cand.px);
      execute(prog);
    }
  } catch (const std::exception& e) {
    out.verified = false;
    res.note("error", e.what());
  }
  if (opt.check) out.check_clean = det.clean();

  res.set("predicted_us", sim::to_usec(predicted));
  res.set("measured_us", sim::to_usec(out.measured));
  res.set("verified", out.verified ? 1.0 : 0.0);
  res.set("check_clean", out.check_clean ? 1.0 : 0.0);
  res.set("persistent_blocks", out.persistent_blocks);
  res.note("recipe", cand.recipe.serialize());
  if (!out.put_expansion.empty()) {
    res.note("put_expansion", out.put_expansion);
  }
  return res;
}

}  // namespace

const CandidateResult* TuneReport::best() const {
  const CandidateResult* best = nullptr;
  for (const CandidateResult& r : ranked) {
    if (!r.validated || !r.verified || !r.check_clean) continue;
    if (best == nullptr || r.measured < best->measured ||
        (r.measured == best->measured &&
         r.candidate.id() < best->candidate.id())) {
      best = &r;
    }
  }
  return best;
}

TuneReport tune(const Workload& w, const vgpu::MachineSpec& spec,
                const TuneOptions& opt) {
  TuneReport report;
  report.workload = w;

  // 1. Enumerate + prototype: score every candidate analytically.
  const std::vector<Candidate> space =
      enumerate_candidates(w, spec, SpaceOptions{opt.max_candidates});
  report.space_size = space.size();
  report.ranked.reserve(space.size());
  for (const Candidate& cand : space) {
    CandidateResult r;
    r.candidate = cand;
    r.predicted = predict_candidate(w, spec, cand);
    report.ranked.push_back(std::move(r));
  }
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const CandidateResult& a, const CandidateResult& b) {
                     if (a.predicted != b.predicted) {
                       return a.predicted < b.predicted;
                     }
                     return a.candidate.id() < b.candidate.id();
                   });

  report.baseline.candidate = default_candidate();
  report.baseline.predicted =
      predict_candidate(w, spec, report.baseline.candidate);

  if (!opt.validate) return report;

  // 2. Validate: full simulated runs for the default + top-K, verified
  // against one serial reference (computed once — it dominates the cost of
  // small workloads).
  std::vector<double> reference;
  if (w.kind == WorkloadKind::kJacobi1D) {
    reference = dacelite::make_jacobi1d(w.gx, w.ranks, w.iterations)
                    .reference(w.iterations);
  } else {
    reference = dacelite::make_jacobi2d(w.gx, w.gy, w.ranks, w.iterations)
                    .reference(w.iterations);
  }

  const std::size_t k =
      std::min(report.ranked.size(), static_cast<std::size_t>(
                                         opt.top_k < 0 ? 0 : opt.top_k));
  sweep::Executor ex(sweep::Options{opt.sweep_threads, opt.progress});
  auto queue = [&](const std::string& label, const Candidate& cand,
                   sim::Nanos predicted, CandidateResult* out) {
    std::vector<sweep::Param> params = opt.base_params;
    params.push_back({"candidate", label});
    ex.add(opt.id_prefix + label, std::move(params),
           [&w, &spec, &opt, cand, predicted, &reference, out] {
             return validate_candidate(w, spec, opt, cand, predicted,
                                       reference, *out);
           });
  };
  queue("default", report.baseline.candidate, report.baseline.predicted,
        &report.baseline);
  for (std::size_t i = 0; i < k; ++i) {
    queue(report.ranked[i].candidate.id(), report.ranked[i].candidate,
          report.ranked[i].predicted, &report.ranked[i]);
  }
  report.records = ex.run();
  return report;
}

}  // namespace tune
