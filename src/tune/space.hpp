// The autotuner's decision space (ROADMAP item 3).
//
// A Candidate is a dacelite Recipe (pass sequence + execution knobs) plus
// the partition shape the frontend builds the SDFG with. enumerate_candidates
// walks the real decision axes the paper's compiler support exposes:
//
//   * put-expansion choice        — auto (§5.3.1 shape dispatch), forced
//                                   strided iput, forced single-element p;
//   * persistent grid sizing      — derive-from-SM-count (the §6.1.2
//                                   default), half and quarter occupancy,
//                                   and the cooperative-launch cap;
//   * partition shape             — every valid px x (ranks/px) process
//                                   grid (2D workloads).
//
// The pass sequence is the §6.2.1 one for every candidate.
//
// Enumeration is a fixed nested loop, so candidate order (and any
// max_candidates truncation) is deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dacelite/pass.hpp"
#include "vgpu/costmodel.hpp"

namespace tune {

enum class WorkloadKind : std::uint8_t { kJacobi1D, kJacobi2D };

[[nodiscard]] constexpr std::string_view name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kJacobi1D: return "jacobi1d";
    case WorkloadKind::kJacobi2D: return "jacobi2d";
  }
  return "?";
}

/// One (program, size, rank count) tuning target.
struct Workload {
  WorkloadKind kind = WorkloadKind::kJacobi2D;
  std::size_t gx = 800;  // 1D uses gx as the global element count
  std::size_t gy = 800;
  int ranks = 4;
  int iterations = 10;

  [[nodiscard]] std::string label() const;
};

/// One point of the decision space.
struct Candidate {
  dacelite::Recipe recipe;
  /// 2D partition columns; 0 = the frontend's default grid_dims shape.
  int px = 0;

  /// Deterministic identity, e.g.
  /// "expansion=auto/blocks=0/px=2" — stable across enumeration
  /// runs and thread counts (ties in predicted cost break on this).
  [[nodiscard]] std::string id() const;
};

struct SpaceOptions {
  /// Upper bound on enumerated candidates (0 = the full space); truncation
  /// keeps the deterministic enumeration prefix.
  int max_candidates = 0;
};

/// The shipping configuration: the canonical recipe, default partition.
[[nodiscard]] Candidate default_candidate();

/// Walks the decision space for `w` on `spec` in a fixed order.
[[nodiscard]] std::vector<Candidate> enumerate_candidates(
    const Workload& w, const vgpu::MachineSpec& spec,
    const SpaceOptions& opt = {});

}  // namespace tune
