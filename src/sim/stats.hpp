// Small run-statistics helper mirroring the paper's reporting convention
// ("we report the minimum of 5 consecutive runs for each experiment").
#pragma once

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sim {

class RunStats {
 public:
  void add(double sample) { samples_.push_back(sample); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  [[nodiscard]] double min() const {
    require_nonempty();
    return *std::min_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double max() const {
    require_nonempty();
    return *std::max_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double mean() const {
    require_nonempty();
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
  }

  [[nodiscard]] double median() const {
    require_nonempty();
    std::vector<double> v = samples_;
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    if (v.size() % 2 == 1) return *mid;
    const double hi = *mid;
    const double lo = *std::max_element(v.begin(), mid);
    return (lo + hi) / 2.0;
  }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  void require_nonempty() const {
    if (samples_.empty()) throw std::logic_error("RunStats: no samples");
  }
  std::vector<double> samples_;
};

/// The paper's speedup convention: (T_baseline - T_ours) / T_baseline * 100%.
[[nodiscard]] constexpr double speedup_percent(double t_baseline, double t_ours) {
  if (t_baseline == 0.0) return 0.0;
  return (t_baseline - t_ours) / t_baseline * 100.0;
}

}  // namespace sim
