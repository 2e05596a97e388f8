// Shared integer/rounding helpers for cost arithmetic.
//
// Every layer that turns "work over capacity" into discrete units (PCIe
// switches per tree, nanoseconds per transfer, rounds per barrier) must round
// the same way; a stray double round-trip or truncating cast silently misprices
// huge domains and sub-nanosecond transfers. The one definition of each rule
// lives here.
#pragma once

#include <cmath>
#include <limits>
#include <type_traits>

#include "sim/time.hpp"

namespace sim {

/// Exact integer ceiling division for positive operands. Integer arithmetic
/// on purpose: a double round-trip misrounds values above 2^53. Written as
/// quotient-plus-remainder rather than the textbook (num + den - 1) / den:
/// the addition silently wraps for num near the type's max (reachable via
/// degenerate --faults stall scales), turning a huge cost into a tiny one.
template <typename T>
[[nodiscard]] constexpr T ceil_div(T num, T den) {
  static_assert(std::is_integral_v<T>);
  return num / den + (num % den != 0 ? 1 : 0);
}

/// ceil(log2(n)) for n >= 1: the round count of a dissemination barrier or
/// recursive-doubling collective over n parties.
[[nodiscard]] constexpr int ceil_log2(int n) {
  int rounds = 0;
  for (int span = 1; span < n; span *= 2) ++rounds;
  return rounds;
}

/// Rounds a fractional duration up to integer nanoseconds, charging at least
/// 1 ns for any positive amount. A truncating cast here let sub-nanosecond
/// costs round down to a free 0 ns (e.g. a 4-byte NVLink put paying no wire
/// time at all). Durations at or beyond the representable range saturate to
/// Nanos::max() instead of invoking the undefined (and in practice wrapping)
/// float-to-integer cast — degenerate fault stall scales can produce them.
[[nodiscard]] inline Nanos ceil_nanos(double x) {
  if (x <= 0.0) return 0;
  // 2^63 is exactly representable; anything >= it is out of Nanos range.
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<Nanos>::max());
  if (x >= kLimit) return std::numeric_limits<Nanos>::max();
  const auto t = static_cast<Nanos>(std::ceil(x));
  return t > 0 ? t : 1;
}

}  // namespace sim
