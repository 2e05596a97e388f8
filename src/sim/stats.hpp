// The paper's reporting convention for speedups.
#pragma once

namespace sim {

/// The paper's speedup convention: (T_baseline - T_ours) / T_baseline * 100%.
[[nodiscard]] constexpr double speedup_percent(double t_baseline, double t_ours) {
  if (t_baseline == 0.0) return 0.0;
  return (t_baseline - t_ours) / t_baseline * 100.0;
}

}  // namespace sim
