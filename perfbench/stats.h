// Order statistics for the benchmark's reported figures. Percentiles use
// linear interpolation between closest ranks (the "inclusive" method of
// Python's statistics.quantiles), so the median of an even-sized sample is
// the mean of the two middle values.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile p (0 < p < 1) above the median needs beyond it
/// before it is reported: with fewer, the tail value is one or two
/// outliers, not a percentile.
inline constexpr int kMinTailSamples = 10;

/// Interpolated percentile of `samples` at p in [0, 1]; nullopt when empty.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline std::optional<double> Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

/// Whether a run with `n` samples supports percentile p: the median always
/// is (when n > 0); a higher percentile needs kMinTailSamples above it,
/// i.e. n * (1 - p) >= kMinTailSamples.
inline bool PercentileSupported(size_t n, double p) {
  if (n == 0) return false;
  if (p <= 0.5) return true;
  return static_cast<double>(n) * (1.0 - p) >=
         static_cast<double>(kMinTailSamples) - 1e-9;
}

/// Percentile p of `samples` if the sample count supports it.
inline std::optional<double> GuardedPercentile(
    const std::vector<double>& samples, double p) {
  if (!PercentileSupported(samples.size(), p)) return std::nullopt;
  return Percentile(samples, p);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
