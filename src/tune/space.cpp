#include "tune/space.hpp"

#include <cstdio>

#include "exec/policy.hpp"

namespace tune {

std::string Workload::label() const {
  char buf[128];
  if (kind == WorkloadKind::kJacobi1D) {
    std::snprintf(buf, sizeof(buf), "jacobi1d n=%zu ranks=%d iters=%d", gx,
                  ranks, iterations);
  } else {
    std::snprintf(buf, sizeof(buf), "jacobi2d g=%zux%zu ranks=%d iters=%d", gx,
                  gy, ranks, iterations);
  }
  return buf;
}

namespace {

/// The cpu_free_default step sequence, with the persistent step's barrier
/// rule spelled out, under the given execution knobs.
dacelite::Recipe make_recipe(dacelite::ExpansionChoice expansion, int blocks) {
  dacelite::Recipe r;
  r.add("gpu_transform")
      .add("mpi_to_nvshmem")
      .add("nvshmem_array")
      .add("persistent", {{"barriers", "relaxed"}});
  r.persistent_blocks = blocks;
  r.expansion = expansion;
  return r;
}

}  // namespace

std::string Candidate::id() const {
  std::string s = "expansion=";
  s += dacelite::name(recipe.expansion);
  s += "/blocks=" + std::to_string(recipe.persistent_blocks);
  s += "/px=" + std::to_string(px);
  return s;
}

Candidate default_candidate() {
  return Candidate{dacelite::Recipe::cpu_free_default(), 0};
}

std::vector<Candidate> enumerate_candidates(const Workload& w,
                                            const vgpu::MachineSpec& spec,
                                            const SpaceOptions& opt) {
  constexpr dacelite::ExpansionChoice kExpansions[] = {
      dacelite::ExpansionChoice::kAuto,
      dacelite::ExpansionChoice::kStridedIputSignal,
      dacelite::ExpansionChoice::kSingleElementP,
  };

  // Grid-size candidates: the SM-count default (0), quarter and half
  // occupancy, and the cooperative-launch cap — deduplicated on the block
  // count they actually resolve to (small machines collapse several).
  const int tpb = dacelite::Recipe{}.threads_per_block;
  const int raw_blocks[] = {0, spec.device.sm_count / 4,
                           spec.device.sm_count / 2,
                           spec.device.max_cooperative_blocks(tpb)};
  std::vector<int> blocks;
  std::vector<int> resolved_seen;
  for (const int b : raw_blocks) {
    const int resolved = exec::resolve_persistent_blocks(b, spec, tpb);
    if (resolved <= 0) continue;
    bool dup = false;
    for (const int seen : resolved_seen) dup = dup || seen == resolved;
    if (dup) continue;
    resolved_seen.push_back(resolved);
    blocks.push_back(b);
  }

  // Partition shapes: every px dividing ranks (2D only; 1D has one ring).
  std::vector<int> pxs;
  if (w.kind == WorkloadKind::kJacobi2D) {
    for (int px = 1; px <= w.ranks; ++px) {
      if (w.ranks % px == 0) pxs.push_back(px);
    }
  } else {
    pxs.push_back(0);
  }

  std::vector<Candidate> out;
  for (const dacelite::ExpansionChoice expansion : kExpansions) {
    for (const int b : blocks) {
      for (const int px : pxs) {
        if (opt.max_candidates > 0 &&
            out.size() >= static_cast<std::size_t>(opt.max_candidates)) {
          return out;
        }
        out.push_back(Candidate{make_recipe(expansion, b), px});
      }
    }
  }
  return out;
}

}  // namespace tune
