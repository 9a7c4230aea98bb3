// Order statistics over raw samples. Quantiles are exact nearest-rank values,
// never read from bucketed histograms.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace jecb::benchmark {

/// Nearest-rank quantile: the smallest sample with at least q*n samples at or
/// below it. `sorted` must be ascending and non-empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// Samples strictly above the nearest-rank q quantile: the support a tail
/// percentile needs (at least 10) before it is reported.
inline size_t SamplesBeyond(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted.size() - std::clamp<size_t>(rank, 1, sorted.size());
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile by the rule of Python's
/// statistics.quantiles(values, n=4) (method "exclusive"), so spreads printed
/// here match the ones computed from the same values in Python.
inline void Quartiles(std::vector<double> v, double* q1, double* q3) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n < 2) {
    *q1 = *q3 = n == 1 ? v[0] : 0.0;
    return;
  }
  const long m = n + 1;
  auto at = [&](long i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4.0;
  };
  *q1 = at(1);
  *q3 = at(3);
}

}  // namespace jecb::benchmark
