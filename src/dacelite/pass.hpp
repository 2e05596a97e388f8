// The dacelite transformation plan as data.
//
// The paper presents its compiler support (§5) as a fixed sequence of SDFG
// transformations (§6.2.1). A Recipe is a list of (pass, parameters) steps
// plus the execution knobs (persistent grid size, block size, put-expansion
// choice) a code generator would bake in; the tuner (src/tune/) enumerates
// Recipes. Pipeline::apply replays one over an SDFG from a fixed table of the
// four passes (gpu_transform, mpi_to_nvshmem, nvshmem_array, persistent),
// each with its applicability test, and records what each step changed. Only persistent takes a parameter: `barriers`, the relaxed
// subgraph-edge rule (§5.1) or a conservative barrier after every state. A
// Recipe's text form (serialize) is output only: the tuner, its reports and
// the examples print it.
//
// The §6.2.1 porting sequence is `Recipe::cpu_free_default()`; replaying it
// is byte-identical to the historical free-function chain (locked by the
// golden-metrics capture — `to_cpu_free` routes through this Pipeline).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dacelite/ir.hpp"
#include "dacelite/transforms.hpp"

namespace dacelite {

/// Parameters of one recipe step, keyed by name. std::map keeps iteration
/// (and thus serialization) order deterministic.
using PassParams = std::map<std::string, std::string>;

struct RecipeStep {
  std::string pass;
  PassParams params;

  [[nodiscard]] bool operator==(const RecipeStep&) const = default;
};

/// A transformation plan: the pass sequence plus the execution parameters
/// the persistent backend consumes (dacelite::exec_options turns them into
/// ExecOptions). This is the unit the tuner enumerates.
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

  /// Text form for reports, e.g.
  ///   "gpu_transform >> persistent(barriers=relaxed) @ blocks=0 tpb=1024
  ///    expansion=auto".
  [[nodiscard]] std::string serialize() const;

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

/// The recipe interpreter over the fixed pass table.
class Pipeline {
 public:
  /// Replays `recipe` over `sdfg`. Each step is checked when reached, in
  /// this order: it names one of the four passes, the pass is applicable to
  /// the SDFG as it is then (a recipe that no longer matches its input is a
  /// bug, not a no-op), and its parameters are ones the pass takes. Any
  /// failure is a ValidationError. The SDFG is validated once at the end
  /// (mirroring the historical free-function chain). Returns the applied
  /// steps with their change counts.
  std::vector<AppliedStep> apply(Sdfg& sdfg, const Recipe& recipe) const;
};

}  // namespace dacelite
