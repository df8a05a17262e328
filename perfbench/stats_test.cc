// Self-test of the benchmark's order statistics: median and quartiles on
// known samples, and the thin-sample guard that withholds a percentile
// with fewer than ten samples beyond it. Exits 1 on the first failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(std::optional<double> value, double expected) {
  return value.has_value() && std::abs(*value - expected) < 1e-12;
}

}  // namespace

int main() {
  using perfbench::GuardedPercentile;
  using perfbench::Median;
  using perfbench::Percentile;
  using perfbench::PercentileSupported;

  Expect(!Median({}).has_value(), "median of nothing is missing");
  Expect(Near(Median({7.0}), 7.0), "median of one sample");
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
  // 1..9: quartiles at positions 2 and 6 of the sorted sample.
  const std::vector<double> nine = {9, 1, 8, 2, 7, 3, 6, 4, 5};
  Expect(Near(Percentile(nine, 0.25), 3.0), "first quartile");
  Expect(Near(Percentile(nine, 0.75), 7.0), "third quartile");
  Expect(Near(Percentile({1.0, 2.0}, 0.25), 1.25), "interpolated quartile");
  Expect(Near(Percentile(nine, 0.0), 1.0) && Near(Percentile(nine, 1.0), 9.0),
         "extremes");

  // p90 needs n * 0.1 >= 10 samples beyond it, i.e. n >= 100.
  Expect(!PercentileSupported(99, 0.9), "p90 of 99 samples is withheld");
  Expect(PercentileSupported(100, 0.9), "p90 of 100 samples is reported");
  Expect(!PercentileSupported(999, 0.99), "p99 of 999 samples is withheld");
  Expect(PercentileSupported(1, 0.5), "the median needs one sample");
  Expect(!PercentileSupported(0, 0.5), "nothing has no median");
  std::vector<double> ramp;
  for (int i = 1; i <= 99; ++i) ramp.push_back(i);
  Expect(!GuardedPercentile(ramp, 0.9).has_value(),
         "guarded p90 of 99 samples is missing");
  ramp.push_back(100);
  Expect(Near(GuardedPercentile(ramp, 0.9), 90.1),
         "guarded p90 of 100 samples");

  std::printf("%s\n", failures == 0 ? "stats self-test passed"
                                    : "stats self-test FAILED");
  return failures == 0 ? 0 : 1;
}
