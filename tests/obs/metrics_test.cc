// Metrics registry: sharded counters/gauges/histograms, registration
// semantics, snapshot export, the global enable switch, and the
// determinism guarantees the per-level counters rely on (integer sums and
// fixed-point histogram sums are order-independent across threads).
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sliceline.h"
#include "data/int_matrix.h"
#include "obs/metrics.h"

namespace sliceline::obs {
namespace {

/// Every test runs with metrics enabled and a clean default registry, and
/// restores the prior enabled state so unrelated suites in this binary see
/// the default-off configuration.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = MetricsEnabled();
    SetMetricsEnabled(true);
    MetricsRegistry::Default()->ResetValues();
  }
  void TearDown() override {
    MetricsRegistry::Default()->ResetValues();
    SetMetricsEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(MetricsTest, CounterAddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Add(5);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 6);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST_F(MetricsTest, DisabledCounterRecordsNothing) {
  SetMetricsEnabled(false);
  Counter counter;
  counter.Add(100);
  EXPECT_EQ(counter.Value(), 0);
  SetMetricsEnabled(true);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 1);
}

TEST_F(MetricsTest, CounterIsExactUnderConcurrency) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Add(3);
    });
  }
  for (auto& thread : threads) thread.join();
  // Integer addition commutes: the sharded total is exact, not approximate.
  EXPECT_EQ(counter.Value(),
            static_cast<int64_t>(kThreads) * kIncrements * 3);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Set(-7.0);
  EXPECT_EQ(gauge.Value(), -7.0);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketsAndSum) {
  HistogramOptions options;
  options.base = 1.0;
  options.growth = 2.0;
  options.num_buckets = 3;  // bounds 1, 2, 4 + overflow
  Histogram histogram(options);
  ASSERT_EQ(histogram.UpperBounds().size(), 3u);
  EXPECT_DOUBLE_EQ(histogram.UpperBounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(histogram.UpperBounds()[1], 2.0);
  EXPECT_DOUBLE_EQ(histogram.UpperBounds()[2], 4.0);

  histogram.Observe(0.5);   // bucket 0
  histogram.Observe(1.5);   // bucket 1
  histogram.Observe(3.0);   // bucket 2
  histogram.Observe(100.0); // overflow
  EXPECT_EQ(histogram.Count(), 4);
  EXPECT_NEAR(histogram.Sum(), 105.0, 1e-6);
  const std::vector<int64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);

  histogram.Reset();
  EXPECT_EQ(histogram.Count(), 0);
  EXPECT_EQ(histogram.Sum(), 0.0);
}

TEST_F(MetricsTest, HistogramSumIsOrderIndependentAcrossThreads) {
  // The sum accumulates in 1e-9 fixed point, so any interleaving of the
  // same observations produces the same bits.
  HistogramOptions options;
  Histogram histogram(options);
  constexpr int kThreads = 4;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kObservations; ++i) {
        histogram.Observe(0.000125);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(),
            static_cast<int64_t>(kThreads) * kObservations);
  // Exact equality on purpose: fixed-point accumulation, not float sums.
  EXPECT_EQ(histogram.Sum(), kThreads * kObservations * 0.000125);
}

TEST_F(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test/counter");
  Counter* b = registry.GetCounter("test/counter");
  EXPECT_EQ(a, b);
  Gauge* g = registry.GetGauge("test/gauge");
  EXPECT_EQ(g, registry.GetGauge("test/gauge"));
  Histogram* h = registry.GetHistogram("test/histogram");
  EXPECT_EQ(h, registry.GetHistogram("test/histogram"));
}

TEST_F(MetricsTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b/counter")->Add(7);
  registry.GetGauge("a/gauge")->Set(1.5);
  registry.GetHistogram("c/histogram")->Observe(0.5);

  const std::vector<MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a/gauge");
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(samples[0].gauge_value, 1.5);
  EXPECT_EQ(samples[1].name, "b/counter");
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[1].counter_value, 7);
  EXPECT_EQ(samples[2].name, "c/histogram");
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[2].histogram_count, 1);
  EXPECT_EQ(samples[2].histogram_buckets.size(),
            samples[2].histogram_bounds.size() + 1);
}

TEST_F(MetricsTest, ResetValuesZeroesButKeepsRegistration) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("x/counter");
  counter->Add(3);
  registry.ResetValues();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(registry.GetCounter("x/counter"), counter);
  EXPECT_EQ(registry.Snapshot().size(), 1u);
}

TEST_F(MetricsTest, ConcurrentRegistrationYieldsOneMetric) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        registry.GetCounter("race/counter")->Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.Snapshot().size(), 1u);
  EXPECT_EQ(registry.GetCounter("race/counter")->Value(), kThreads * 200);
}

TEST_F(MetricsTest, LevelMetricNameComposition) {
  EXPECT_EQ(LevelMetricName("native", 3, "candidates"),
            "native/level3/candidates");
  EXPECT_EQ(LevelMetricName("la", 1, "pruned"), "la/level1/pruned");
}

TEST_F(MetricsTest, RecordLevelMetricsMirrorsLevelStats) {
  MetricsRegistry* registry = MetricsRegistry::Default();
  RecordLevelMetrics("testengine", 2, /*candidates=*/10, /*valid=*/7,
                     /*pruned=*/3, /*seconds=*/0.25);
  EXPECT_EQ(registry->GetCounter("testengine/level2/candidates")->Value(), 10);
  EXPECT_EQ(registry->GetCounter("testengine/level2/valid")->Value(), 7);
  EXPECT_EQ(registry->GetCounter("testengine/level2/pruned")->Value(), 3);
  EXPECT_EQ(registry->GetHistogram("testengine/level_seconds")->Count(), 1);
}

/// The level-wise driver records each generated level's split next to its
/// pruned count. Eight rows hold every combination of three binary
/// features (one-hot columns 0-5, two per feature); the two rows with
/// features 1 and 2 both at code 2 carry no error. With score pruning off:
///   * level 2 joins the six basic slices as one prefix group: 15 pairs, 3
///     of them on one feature, 12 candidates;
///   * slice {3, 5} has no error, so 11 level-2 parents remain. Their prefix
///     groups {0: 4}, {1: 4}, {2: 2} and {3: 1} form 6 + 6 + 1 pairs, 5 of
///     them on one feature. Keys {0, 3, 5} and {1, 3, 5} lack parent {3, 5}.
/// Kept parents pass the size test, so no pair is rejected.
TEST_F(MetricsTest, LevelWiseRunRecordsGenerationSplit) {
  data::IntMatrix x0(8, 3);
  std::vector<double> errors(8, 1.0);
  for (int64_t row = 0; row < 8; ++row) {
    for (int64_t j = 0; j < 3; ++j) {
      x0.At(row, j) = static_cast<int32_t>((row >> j) & 1) + 1;
    }
    if (x0.At(row, 1) == 2 && x0.At(row, 2) == 2) errors[row] = 0.0;
  }
  core::SliceLineConfig config;
  config.min_support = 1;
  config.prune_score = false;
  config.parallel = false;
  auto result = core::RunSliceLine(x0, errors, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->levels.size(), 3u);
  MetricsRegistry* registry = MetricsRegistry::Default();
  auto counter = [&](int level, const char* what) {
    return registry->GetCounter(LevelMetricName("native", level, what))
        ->Value();
  };
  EXPECT_EQ(counter(2, "pairs"), 15);
  EXPECT_EQ(counter(2, "pair_rejected"), 0);
  EXPECT_EQ(counter(2, "candidate_rejected"), 0);
  EXPECT_EQ(counter(2, "candidates"), 12);
  EXPECT_EQ(counter(3, "pairs"), 13);
  EXPECT_EQ(counter(3, "pair_rejected"), 0);
  EXPECT_EQ(counter(3, "candidate_rejected"), 2);
  EXPECT_EQ(counter(3, "candidates"), 6);
  for (int level : {2, 3}) {
    EXPECT_EQ(counter(level, "pruned"),
              counter(level, "pair_rejected") +
                  counter(level, "candidate_rejected"));
    EXPECT_EQ(counter(level, "pruned"), result->levels[level - 1].pruned);
  }
}

}  // namespace
}  // namespace sliceline::obs
