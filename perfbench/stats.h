#ifndef GRAPHAUG_PERFBENCH_STATS_H_
#define GRAPHAUG_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace graphaug::perfbench {

/// Nearest-rank percentile of `samples` (q in (0, 1]): the value at
/// 1-based rank ceil(q * n) of the sorted samples. Unlike a bucketed
/// histogram estimate it always returns an observed value, so p50 == p99
/// when every sample is equal. Returns nullopt for an empty sample set.
inline std::optional<double> NearestRank(std::vector<double> samples,
                                         double q) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

/// Number of samples that lie beyond the nearest-rank q-percentile.
inline int64_t SamplesBeyond(int64_t n, double q) {
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; with fewer, one outlier decides the value.
inline constexpr int64_t kMinSamplesBeyondTail = 10;

/// Tail percentile, or nullopt when fewer than kMinSamplesBeyondTail
/// samples lie beyond it.
inline std::optional<double> TailPercentile(const std::vector<double>& samples,
                                            double q) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0 || SamplesBeyond(n, q) < kMinSamplesBeyondTail) {
    return std::nullopt;
  }
  return NearestRank(samples, q);
}

inline double Median(const std::vector<double>& samples) {
  return NearestRank(samples, 0.5).value_or(0.0);
}

}  // namespace graphaug::perfbench

#endif  // GRAPHAUG_PERFBENCH_STATS_H_
