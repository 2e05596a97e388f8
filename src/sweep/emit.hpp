// Structured emission of sweep results: BENCH_*.json and CSV.
//
// Schema "cpufree-bench-v1" (one file per bench driver):
//   {
//     "schema": "cpufree-bench-v1",
//     "bench": "<driver name>",
//     "threads": <worker count the sweep ran with>,
//     "runs": [
//       {
//         "id": "<unique run id>",
//         "params": {"<axis>": "<value>", ...},
//         "workload": "<family: jacobi2d | cg | histogram | sparse_cg | ...>",
//         "partition_imbalance": <max per-rank work / mean; 1.0 = balanced>,
//         "wall_ms": <host wall-clock spent simulating the run>,
//         "values": {"<scalar>": <double>, ...},
//         "notes": {"<key>": "<string outcome>", ...},   // optional; only
//                  // when the run recorded string-valued results (e.g. the
//                  // put expansion a dacelite run selected)
//         "metrics": {<cpufree::RunMetrics, ns-exact>},
//         "machine": {<the vgpu::MachineSpec calibration the run used>}
//       }, ...
//     ]
//   }
// Runs appear in submission order (deterministic across thread counts).
//
// The CSV flattens the same records: one row per run, one column per param /
// metric / value key (union across runs, first-seen order).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sweep/record.hpp"

namespace sweep {

/// Appends `spec` as a JSON object: every cost-model constant a run was
/// charged with, so a BENCH record is self-describing (the machine-readable
/// form of the calibration banner the drivers print).
void append_json(const vgpu::MachineSpec& spec, std::string& out);

[[nodiscard]] std::string bench_json(std::string_view bench, int threads,
                                     const std::vector<RunRecord>& records);

[[nodiscard]] std::string bench_csv(const std::vector<RunRecord>& records);

/// Writes `text` to `path`; throws std::runtime_error on I/O failure.
void write_file(const std::string& path, std::string_view text);

}  // namespace sweep
