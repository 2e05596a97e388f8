// First-class pass framework over the dacelite transformations.
//
// The paper presents its compiler support (§5) as a fixed sequence of SDFG
// transformations; the tuner (src/tune/) needs that sequence to be data. A
// Pass wraps one transformation behind a uniform interface — name,
// applicability predicate, enumerable parameter space, apply — and a Recipe
// is a serializable list of (pass, parameters) steps plus the execution
// knobs (persistent grid size, block size, put-expansion choice) a code
// generator would bake in. Pipeline::apply replays a Recipe over an SDFG
// and records what each step changed.
//
// The §6.2.1 porting sequence is `Recipe::cpu_free_default()`; replaying it
// is byte-identical to the historical free-function chain (locked by the
// golden-metrics capture — `to_cpu_free` routes through this Pipeline).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dacelite/ir.hpp"
#include "dacelite/transforms.hpp"

namespace dacelite {

/// Parameters of one recipe step, keyed by name. std::map keeps iteration
/// (and thus serialization) order deterministic.
using PassParams = std::map<std::string, std::string>;

/// One enumerable parameter of a pass: key + the values a tuner may try
/// (first value = the default).
struct ParamDomain {
  std::string key;
  std::vector<std::string> values;
};

/// A named, applicability-guarded SDFG transformation.
class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Whether the pass matches `sdfg` in its current shape. Pipeline::apply
  /// refuses inapplicable steps (a recipe that no longer matches its input
  /// is a bug, not a no-op).
  [[nodiscard]] virtual bool applicable(const Sdfg& sdfg) const = 0;
  /// The pass's enumerable parameters (empty for parameter-free passes).
  [[nodiscard]] virtual std::vector<ParamDomain> parameter_space() const {
    return {};
  }
  /// Applies the pass; returns the number of nodes/arrays/edges changed.
  /// Unknown parameter keys are a ValidationError.
  virtual int apply(Sdfg& sdfg, const PassParams& params) const = 0;
};

struct RecipeStep {
  std::string pass;
  PassParams params;

  [[nodiscard]] bool operator==(const RecipeStep&) const = default;
};

/// A serializable transformation plan: the pass sequence plus the execution
/// parameters the persistent backend consumes (dacelite::exec_options turns
/// them into ExecOptions). This is the unit the tuner enumerates and the
/// compiled fast path (ROADMAP item 4) will key code generation on.
struct Recipe {
  std::vector<RecipeStep> steps;
  /// Co-resident blocks per device; 0 derives from sm_count (clamped to the
  /// cooperative-launch cap by exec::resolve_persistent_blocks).
  int persistent_blocks = 0;
  /// Threads per block of the persistent backend's cooperative launch; a
  /// discrete launch has no grid size.
  int threads_per_block = 1024;
  /// Put-expansion override for NVSHMEM signaled puts (kAuto = §5.3.1).
  ExpansionChoice expansion = ExpansionChoice::kAuto;

  Recipe& add(std::string pass, PassParams params = {});

  /// Round-trippable text form, e.g.
  ///   "gpu_transform >> persistent(barriers=relaxed) @ blocks=0 tpb=1024
  ///    expansion=auto".
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws ValidationError on malformed text.
  [[nodiscard]] static Recipe parse(std::string_view text);

  /// The canonical §6.2.1 porting sequence (what to_cpu_free applies):
  /// gpu_transform >> mpi_to_nvshmem >> nvshmem_array >> persistent.
  [[nodiscard]] static Recipe cpu_free_default();
  /// The discrete-baseline preparation: gpu_transform only (maps to CUDA,
  /// MPI nodes stay host-driven).
  [[nodiscard]] static Recipe gpu_baseline();

  [[nodiscard]] bool operator==(const Recipe&) const = default;
};

/// One replayed step plus what it changed.
struct AppliedStep {
  RecipeStep step;
  int changed = 0;
};

/// The pass registry + recipe interpreter. Construction registers the five
/// built-in passes (gpu_transform, mpi_to_nvshmem, nvshmem_array,
/// map_fusion, persistent); register_pass extends the registry.
class Pipeline {
 public:
  Pipeline();

  /// Registers a pass; a later registration with an existing name wins on
  /// lookup (deliberate: tests override built-ins).
  void register_pass(std::unique_ptr<Pass> pass);

  /// Pass lookup by name; throws ValidationError when unknown.
  [[nodiscard]] const Pass& at(std::string_view pass_name) const;
  [[nodiscard]] bool has(std::string_view pass_name) const;
  /// Registered pass names in registration order.
  [[nodiscard]] std::vector<std::string_view> pass_names() const;

  /// Replays `recipe` over `sdfg`: every step must name a registered pass
  /// and be applicable when reached; the SDFG is validated once at the end
  /// (mirroring the historical free-function chain). Returns the applied
  /// steps with their change counts.
  std::vector<AppliedStep> apply(Sdfg& sdfg, const Recipe& recipe) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace dacelite
