#pragma once
// Exact order statistics over raw samples (nearest-rank percentiles). The
// telemetry histograms bucket at ~12.5 %, wider than any bound the
// benchmark enforces, so no end-to-end number comes from them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace swc::bench {

struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly greater than value
};

// Nearest rank: the smallest sample with at least q * n samples at or below it.
[[nodiscard]] inline Quantile quantile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::clamp(std::ceil(q * n), 1.0, n));
  out.value = values[rank - 1];
  out.beyond = static_cast<std::size_t>(values.end() -
                                        std::upper_bound(values.begin(), values.end(), out.value));
  return out;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5).value;
}

}  // namespace swc::bench
