#include "serve/workload.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dacelite/exec.hpp"
#include "dacelite/frontend.hpp"
#include "dacelite/pass.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "solvers/cg.hpp"
#include "solvers/sparse_cg.hpp"
#include "stencil/problems.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "vshmem/world.hpp"
#include "workloads/histogram/histogram.hpp"

namespace serve {

namespace {

/// What every adapter shares: the job's device-slice World, labelled, in
/// the job's functional mode and behind its fault-injection gate, and the
/// run options the job's spec and placement give its config.
class SliceWorkload : public Workload {
 public:
  bool drained() const override { return world_.drained(); }

 protected:
  SliceWorkload(vgpu::Machine& machine, const JobSpec& spec,
                const Placement& place, const std::string& label,
                bool functional)
      : world_(machine, place.devices, label),
        run_{.functional = functional,
             .threads_per_block = spec.threads_per_block,
             .persistent_blocks = place.blocks_per_device} {
    world_.set_functional(functional);
    world_.set_fault_injection(spec.faulty);
  }

  vshmem::World world_;
  /// The job's run options, which each adapter assigns into its config.
  const exec::RunOptions run_;
};

/// CPU-Free Jacobi2D on a device slice: the standard SlabStencil packaged
/// through the exec layer's spawnable persistent driver. The only
/// checkpoint-capable kind: under the hard-fault plane it snapshots its
/// state every spec.checkpoint_every iterations and can restart a later
/// attempt from the newest complete snapshot, running only the remaining
/// iterations — bitwise-identical to the unfailed run (Jacobi is a pure
/// function of the previous state, and load_state() seeds both parities the
/// way init() does).
class StencilWorkload final : public SliceWorkload {
 public:
  StencilWorkload(vgpu::Machine& machine, const JobSpec& spec,
                  const Placement& place, const std::string& label,
                  const ResumeState* resume, bool functional)
      : SliceWorkload(machine, spec, place, label, functional),
        prob_(make_prob(spec)),
        start_iter_(resume ? resume->iteration : 0),
        S_(world_, prob_, make_cfg(spec, start_iter_)),
        store_(static_cast<int>(place.devices.size()), spec.checkpoint_every),
        iters_(spec.iterations) {
    devices_ = place.devices;
    if (start_iter_ > 0) {
      seed_state_ = resume->state;
      S_.load_state(seed_state_);
    }
    // Same factory as the bench runner (run_variant); only the checkpoint
    // store is layered on top (an interval of 0 never snapshots).
    program_ = stencil::make_slab_program(S_, stencil::Variant::kCpuFree);
    program_.checkpoints = &store_;
  }

  sim::Task task() override {
    // program_ is a member: the lazy coroutine keeps its const& parameter
    // alive only as a reference, so a temporary program would dangle.
    return exec::run_program_persistent_task(program_);
  }

  bool verify() override {
    // A restarted run executed iters_ - start_iter_ iterations, but must
    // land bitwise on the full-run reference from the TRUE initial state.
    const int run = iters_ - start_iter_;
    return S_.matches_reference(run & 1, iters_);
  }

  std::string detail() const override {
    // += rather than operator+ chains: GCC 12 -Wrestrict false positive.
    std::string d = "jacobi2d ";
    d += std::to_string(prob_.nx);
    d += 'x';
    d += std::to_string(prob_.ny);
    d += " x";
    d += std::to_string(iters_);
    if (start_iter_ > 0) {
      d += " (resumed at ";
      d += std::to_string(start_iter_);
      d += ')';
    }
    return d;
  }

  bool aborted() const override {
    if (world_.hard_stopped()) return true;
    // A slice device declared dead by ANOTHER tenant's kernel can retire
    // this job's launches without ever tripping its own watchdogs (e.g. a
    // single-device job whose launch was rejected outright).
    const fault::Schedule& faults = machine_->faults();
    if (!faults.hard_enabled()) return false;
    for (int d : devices_) {
      if (faults.device_dead(d)) return true;
    }
    return false;
  }

  std::string abort_reason() const override {
    if (!world_.hard_stop_reason().empty()) return world_.hard_stop_reason();
    return "device in slice declared dead";
  }

  bool restartable() const override { return store_.every > 0; }

  int resume_iteration() const override {
    return start_iter_ + store_.last_complete();
  }

  std::vector<double> resume_state() const override {
    const int t = store_.last_complete();
    // No complete snapshot from THIS attempt: fall back to the state this
    // attempt itself started from (empty when starting from scratch).
    if (t == 0) return seed_state_;
    // Per-PE owned interiors concatenated in PE order ARE the global state
    // (the slab decomposition assigns contiguous global slabs to PEs).
    std::vector<double> g(prob_.slabs() * prob_.plane());
    std::ptrdiff_t off = 0;
    for (int pe = 0; pe < static_cast<int>(devices_.size()); ++pe) {
      const std::vector<double>& s = store_.slice(t, pe);
      std::copy(s.begin(), s.end(), g.begin() + off);
      off += static_cast<std::ptrdiff_t>(s.size());
    }
    return g;
  }

 private:
  static stencil::Jacobi2D make_prob(const JobSpec& spec) {
    stencil::Jacobi2D p;
    p.nx = spec.nx;
    p.ny = spec.ny;
    return p;
  }
  stencil::StencilConfig make_cfg(const JobSpec& spec, int start_iter) const {
    stencil::StencilConfig cfg;
    static_cast<exec::RunOptions&>(cfg) = run_;
    cfg.iterations = spec.iterations - start_iter;
    return cfg;
  }

  vgpu::Machine* machine_ = &world_.machine();
  std::vector<int> devices_;
  stencil::Jacobi2D prob_;
  int start_iter_;
  stencil::SlabStencil<stencil::Jacobi2D> S_;
  exec::CheckpointStore store_;
  exec::Program program_;
  std::vector<double> seed_state_;
  int iters_;
};

/// A CG job's solver config. Its problem fields key the reference memo, so
/// the workload and timing_is_data_independent build it here alike.
template <class Config>
Config cg_config(const JobSpec& spec) {
  Config cfg;
  cfg.nx = spec.nx;
  cfg.ny = spec.ny;
  cfg.max_iterations = spec.iterations;
  if constexpr (std::is_same_v<Config, solvers::SparseCgConfig>) {
    cfg.imbalance = spec.imbalance;
  }
  return cfg;
}

/// Device-converged CG on a device slice, verified bitwise against the
/// partition-shaped serial reference: matrix-free CG over the even split
/// (kCg), or sparse CG with a deliberately imbalanced row partition
/// (kSparseCg). The config's type picks the solver's operator.
class CgWorkload final : public SliceWorkload {
 public:
  CgWorkload(vgpu::Machine& machine, const JobSpec& spec,
             const Placement& place, const std::string& label,
             bool functional)
      : SliceWorkload(machine, spec, place, label, functional),
        kind_(spec.kind),
        nx_(spec.nx),
        ny_(spec.ny) {
    auto make = [&](auto cfg) {
      static_cast<exec::RunOptions&>(cfg) = run_;
      job_ = std::make_unique<solvers::CgCpufreeJob>(world_, cfg);
    };
    if (spec.kind == JobKind::kCg) {
      make(cg_config<solvers::CgConfig>(spec));
    } else {
      make(cg_config<solvers::SparseCgConfig>(spec));
    }
  }

  sim::Task task() override { return job_->task(); }

  bool verify() override {
    const solvers::CgResult ref = job_->reference();
    return job_->iterations_run() == ref.iterations_run &&
           job_->final_rr() == ref.final_rr &&
           job_->rr_history() == ref.rr_history;
  }

  std::string detail() const override {
    std::string d(name(kind_));
    d += ' ';
    d += std::to_string(nx_);
    d += 'x';
    d += std::to_string(ny_);
    d += ", ";
    d += std::to_string(job_->iterations_run());
    d += " iters";
    return d;
  }

 private:
  JobKind kind_;
  std::size_t nx_;
  std::size_t ny_;
  std::unique_ptr<solvers::CgCpufreeJob> job_;
};

/// A dacelite Jacobi2D SDFG compiled through the persistent (CPU-Free)
/// backend, verified exactly via gather() against the SDFG's reference.
class DaceliteWorkload final : public SliceWorkload {
 public:
  DaceliteWorkload(vgpu::Machine& machine, const JobSpec& spec,
                   const Placement& place, const std::string& label,
                   bool functional)
      : SliceWorkload(machine, spec, place, label, functional),
        prog_(make_prog(spec, static_cast<int>(place.devices.size()))),
        iters_(spec.iterations) {
    data_ = std::make_unique<dacelite::ProgramData>(world_, prog_.sdfg,
                                                    functional);
    // ExecOptions is dacelite's own struct (it takes no observer): copy the
    // three options it shares.
    options_.functional = run_.functional;
    options_.threads_per_block = run_.threads_per_block;
    options_.persistent_blocks = run_.persistent_blocks;
  }

  sim::Task task() override {
    return dacelite::execute_persistent_task(*data_, prog_.sdfg, options_,
                                             &result_);
  }

  bool verify() override {
    return prog_.matches_reference(*data_, iters_);
  }

  std::string detail() const override {
    std::string d = "dacelite jacobi2d ";
    d += std::to_string(prog_.gx);
    d += 'x';
    d += std::to_string(prog_.gy);
    d += " x";
    d += std::to_string(iters_);
    d += " (";
    d += result_.put_expansion;
    d += ')';
    return d;
  }

 private:
  static dacelite::Jacobi2DProgram make_prog(const JobSpec& spec, int ranks) {
    dacelite::Jacobi2DProgram p =
        dacelite::make_jacobi2d(spec.nx, ranks, spec.iterations);
    dacelite::to_cpu_free(p.sdfg);
    return p;
  }

  dacelite::Jacobi2DProgram prog_;
  std::unique_ptr<dacelite::ProgramData> data_;
  dacelite::ExecOptions options_;
  dacelite::ExecResult result_;
  int iters_;
};

/// Generalized histogram on a device slice: data-dependent contended puts
/// to owner-partitioned bins, verified bitwise against the source-ordered
/// serial reference.
class HistogramWorkload final : public SliceWorkload {
 public:
  HistogramWorkload(vgpu::Machine& machine, const JobSpec& spec,
                    const Placement& place, const std::string& label,
                    bool functional)
      : SliceWorkload(machine, spec, place, label, functional) {
    static_cast<exec::RunOptions&>(cfg_) = run_;
    cfg_.bins = spec.nx;
    cfg_.keys_per_round = spec.ny;
    cfg_.rounds = spec.iterations;
    cfg_.skew = spec.skew;
    job_ = std::make_unique<workloads::HistogramCpufreeJob>(world_, cfg_);
  }

  sim::Task task() override { return job_->task(); }

  bool verify() override {
    return job_->gather_bins() ==
           workloads::histogram_reference(cfg_, world_.n_pes());
  }

  std::string detail() const override {
    std::string d = "histogram ";
    d += std::to_string(cfg_.bins);
    d += " bins x";
    d += std::to_string(cfg_.rounds);
    d += ", skew ";
    d += std::to_string(cfg_.skew);
    return d;
  }

 private:
  workloads::HistogramConfig cfg_;
  std::unique_ptr<workloads::HistogramCpufreeJob> job_;
};

/// Whether `config`'s memoized reference (the one verify() compares with)
/// ran every iteration without reaching tolerance. The device-side
/// convergence exit is CG's only data-dependent control flow, so such a run
/// takes the timing-only run's path; one that converges, even at its last
/// iteration, skips the rest of that iteration's work.
template <class Config, class Reference>
bool runs_every_iteration(const Config& config, Reference reference,
                          int ranks) {
  const solvers::CgResult ref = reference(config, ranks);
  return ref.iterations_run == config.max_iterations &&
         !(ref.final_rr < config.tolerance);
}

}  // namespace

std::string validate(const JobSpec& spec) {
  if (spec.devices < 1) return "devices must be >= 1";
  if (spec.iterations < 1) return "iterations must be >= 1";
  switch (spec.kind) {
    case JobKind::kStencil:
      if (spec.ny < 2 * static_cast<std::size_t>(spec.devices)) {
        return "stencil needs at least two slabs per device";
      }
      break;
    case JobKind::kCg:
      if (spec.ny < 2 * static_cast<std::size_t>(spec.devices)) {
        return "cg needs at least two rows per device";
      }
      break;
    case JobKind::kDacelite: {
      const auto [px, py] = dacelite::grid_dims(spec.devices);
      if (spec.nx % static_cast<std::size_t>(px) != 0 ||
          spec.nx % static_cast<std::size_t>(py) != 0) {
        return "dacelite domain must divide by the process grid";
      }
      break;
    }
    case JobKind::kHistogram:
      if (spec.nx < static_cast<std::size_t>(spec.devices)) {
        return "histogram needs at least one bin per device";
      }
      break;
    case JobKind::kSparseCg: {
      if (spec.ny < 2 * static_cast<std::size_t>(spec.devices)) {
        return "sparse_cg needs at least two rows per device";
      }
      solvers::SparseCgConfig cfg;
      cfg.nx = spec.nx;
      cfg.ny = spec.ny;
      cfg.imbalance = spec.imbalance;
      try {
        return solvers::csr_overflow(cfg, spec.devices);
      } catch (const std::invalid_argument& e) {
        return e.what();  // an imbalance no row split can weight
      }
    }
  }
  return {};
}

bool timing_is_data_independent(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kStencil:
      return spec.checkpoint_every == 0;
    case JobKind::kDacelite:
    case JobKind::kHistogram:
      return true;
    case JobKind::kCg:
      return runs_every_iteration(cg_config<solvers::CgConfig>(spec),
                                  solvers::cg_reference, spec.devices);
    case JobKind::kSparseCg:
      return runs_every_iteration(cg_config<solvers::SparseCgConfig>(spec),
                                  solvers::sparse_cg_reference, spec.devices);
  }
  return false;
}

std::unique_ptr<Workload> make_workload(vgpu::Machine& machine,
                                        const JobSpec& spec,
                                        const Placement& place,
                                        const std::string& label,
                                        const ResumeState* resume,
                                        bool functional) {
  if (!functional && !timing_is_data_independent(spec)) {
    throw std::invalid_argument(
        std::string("make_workload: this ") + name(spec.kind) +
        " job's timing depends on its data; it cannot run timing-only");
  }
  switch (spec.kind) {
    case JobKind::kStencil:
      return std::make_unique<StencilWorkload>(machine, spec, place, label,
                                               resume, functional);
    case JobKind::kCg:
    case JobKind::kSparseCg:
      return std::make_unique<CgWorkload>(machine, spec, place, label,
                                          functional);
    case JobKind::kDacelite:
      return std::make_unique<DaceliteWorkload>(machine, spec, place, label,
                                                functional);
    case JobKind::kHistogram:
      return std::make_unique<HistogramWorkload>(machine, spec, place, label,
                                                 functional);
  }
  throw std::invalid_argument("make_workload: unknown job kind");
}

}  // namespace serve
