#include "dacelite/pass.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <utility>
#include <variant>

namespace dacelite {

namespace {

[[nodiscard]] bool has_lib_node(const Sdfg& sdfg, bool (*pred)(LibKind)) {
  for (const State& st : sdfg.body) {
    for (const Node& n : st.nodes) {
      const auto* lib = std::get_if<LibraryNode>(&n);
      if (lib != nullptr && pred(lib->kind)) return true;
    }
  }
  return false;
}

/// One of the four passes: its name, whether it matches an SDFG in its
/// current shape, and the transformation, which returns the number of
/// nodes/arrays/edges changed. `conservative` is persistent's one parameter.
struct PassEntry {
  std::string_view name;
  bool (*applicable)(const Sdfg&);
  int (*apply)(Sdfg&, bool conservative);
};

constexpr PassEntry kPasses[] = {
    {"gpu_transform", [](const Sdfg& s) { return !s.gpu; },
     [](Sdfg& s, bool) { return apply_gpu_transform(s); }},
    {"mpi_to_nvshmem",
     [](const Sdfg& s) {
       return has_lib_node(s, [](LibKind k) { return !is_nvshmem(k); });
     },
     [](Sdfg& s, bool) { return apply_mpi_to_nvshmem(s); }},
    {"nvshmem_array",
     [](const Sdfg& s) {
       return has_lib_node(s, [](LibKind k) { return is_nvshmem(k); });
     },
     [](Sdfg& s, bool) { return apply_nvshmem_arrays(s); }},
    // Changes are the grid barriers placed.
    {"persistent", [](const Sdfg& s) { return s.gpu && !s.persistent; },
     [](Sdfg& s, bool conservative) {
       apply_persistent(s);
       if (conservative) s.barrier_after.assign(s.body.size(), true);
       return static_cast<int>(
           std::count(s.barrier_after.begin(), s.barrier_after.end(), true));
     }},
};

/// Checks a step's parameters and returns whether it asks for conservative
/// barriers. Only persistent takes one: `barriers`, the relaxed
/// subgraph-edge rule (§5.1, the default) or `conservative`, a grid barrier
/// after every state as DaCe's stock persistent fusion places them. Any
/// other key or value is a ValidationError — a misspelled recipe must fail
/// loudly, not silently run with defaults.
bool check_params(const PassEntry& pass, const PassParams& params) {
  bool conservative = false;
  for (const auto& [key, value] : params) {
    if (pass.name != "persistent" || key != "barriers") {
      throw ValidationError("pass " + std::string(pass.name) +
                            ": unknown parameter '" + key + "'");
    }
    if (value != "relaxed" && value != "conservative") {
      throw ValidationError("pass " + std::string(pass.name) +
                            ": parameter '" + key + "' has no value '" +
                            value + "'");
    }
    conservative = value == "conservative";
  }
  return conservative;
}

}  // namespace

// --- Recipe -------------------------------------------------------------------

Recipe& Recipe::add(std::string pass, PassParams params) {
  steps.push_back(RecipeStep{std::move(pass), std::move(params)});
  return *this;
}

std::string Recipe::serialize() const {
  std::string out;
  for (const RecipeStep& step : steps) {
    if (!out.empty()) out += " >> ";
    out += step.pass;
    if (!step.params.empty()) {
      out += '(';
      bool first = true;
      for (const auto& [key, value] : step.params) {
        if (!first) out += ',';
        first = false;
        out += key;
        out += '=';
        out += value;
      }
      out += ')';
    }
  }
  char knobs[96];
  std::snprintf(knobs, sizeof(knobs), "%s@ blocks=%d tpb=%d expansion=",
                out.empty() ? "" : " ", persistent_blocks, threads_per_block);
  out += knobs;
  out += name(expansion);
  return out;
}

Recipe Recipe::cpu_free_default() {
  Recipe r;
  r.add("gpu_transform")
      .add("mpi_to_nvshmem")
      .add("nvshmem_array")
      .add("persistent");
  return r;
}

Recipe Recipe::gpu_baseline() {
  Recipe r;
  r.add("gpu_transform");
  return r;
}

// --- Pipeline -----------------------------------------------------------------

std::vector<AppliedStep> Pipeline::apply(Sdfg& sdfg,
                                         const Recipe& recipe) const {
  std::vector<AppliedStep> applied;
  applied.reserve(recipe.steps.size());
  for (const RecipeStep& step : recipe.steps) {
    const auto* pass = std::find_if(
        std::begin(kPasses), std::end(kPasses),
        [&step](const PassEntry& p) { return p.name == step.pass; });
    if (pass == std::end(kPasses)) {
      throw ValidationError("pipeline: unknown pass '" + step.pass + "'");
    }
    if (!pass->applicable(sdfg)) {
      throw ValidationError("pipeline: pass '" + step.pass +
                            "' is not applicable to SDFG '" + sdfg.name + "'");
    }
    const bool conservative = check_params(*pass, step.params);
    applied.push_back(AppliedStep{step, pass->apply(sdfg, conservative)});
  }
  sdfg.validate();
  return applied;
}

}  // namespace dacelite
