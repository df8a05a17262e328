// Determinism guarantees: the reported top-K must be identical across
// repeated runs, thread-pool sizes, distributed shard counts, and
// fault-injected distributed runs (short of the documented local-fallback
// degradation). These are the invariants the fuzz harness's determinism
// check enforces per-case; this suite pins them on fixed datasets so a
// regression fails deterministically in tier-1.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/sliceline.h"
#include "dist/coordinator.h"
#include "linalg/kernels_simd.h"
#include "obs/metrics.h"
#include "testing/checks.h"
#include "testing/random_dataset.h"

namespace sliceline::core {
namespace {

/// Planted dataset with enough signal for a non-trivial top-K: two planted
/// problem conjunctions plus background noise.
struct Dataset {
  data::IntMatrix x0;
  std::vector<double> errors;
};

Dataset MakePlanted(uint64_t seed, int64_t n) {
  Rng rng(seed);
  Dataset d;
  d.x0 = data::IntMatrix(n, 5);
  d.errors.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < 5; ++j) {
      d.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(4)) + 1;
    }
    d.errors[i] = rng.NextBool(0.05) ? 1.0 : 0.0;
    if (d.x0.At(i, 0) == 1 && d.x0.At(i, 1) == 2) d.errors[i] = 1.0;
    if (d.x0.At(i, 2) == 3 && rng.NextBool(0.5)) d.errors[i] = 1.0;
  }
  return d;
}

/// Exact (bit-identical) top-K equality: same length, same predicate sets in
/// the same rank order, same scores and sizes.
void ExpectIdenticalTopK(const SliceLineResult& a, const SliceLineResult& b,
                         const std::string& label) {
  ASSERT_EQ(a.top_k.size(), b.top_k.size()) << label;
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    EXPECT_EQ(a.top_k[i].predicates, b.top_k[i].predicates)
        << label << " rank " << i;
    EXPECT_EQ(a.top_k[i].stats.score, b.top_k[i].stats.score)
        << label << " rank " << i;
    EXPECT_EQ(a.top_k[i].stats.size, b.top_k[i].stats.size)
        << label << " rank " << i;
    EXPECT_EQ(a.top_k[i].stats.error_sum, b.top_k[i].stats.error_sum)
        << label << " rank " << i;
    EXPECT_EQ(a.top_k[i].stats.max_error, b.top_k[i].stats.max_error)
        << label << " rank " << i;
  }
}

class DeterminismTest : public ::testing::Test {
 protected:
  // Whatever a test does to the global pool or the kernel dispatch, restore
  // the defaults so later suites in the same binary see the normal
  // configuration (even when an assertion aborts a test mid-way).
  void TearDown() override {
    ResizeGlobalThreadPoolForTesting(0);
    linalg::ClearForcedIsa();
  }
};

TEST_F(DeterminismTest, RepeatedRunsAreBitIdentical) {
  Dataset d = MakePlanted(11, 1500);
  SliceLineConfig config;
  config.k = 6;
  config.parallel = true;
  auto first = RunSliceLine(d.x0, d.errors, config);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->top_k.empty());
  for (int run = 0; run < 3; ++run) {
    auto again = RunSliceLine(d.x0, d.errors, config);
    ASSERT_TRUE(again.ok());
    ExpectIdenticalTopK(*first, *again, "repeat run " + std::to_string(run));
  }
}

TEST_F(DeterminismTest, ThreadPoolSizeDoesNotChangeResult) {
  // Long enough for kScanBlock to split the rows across the pool.
  Dataset d = MakePlanted(13, 10000);
  SliceLineConfig config;
  config.k = 6;
  config.parallel = true;
  // Every strategy is bit-identical regardless of how work is split across
  // threads: kBitset sums each slice in one ascending-row chain, kScanBlock
  // sums fixed row tiles and merges them in tile order.
  using EvalStrategy = SliceLineConfig::EvalStrategy;
  for (EvalStrategy strategy :
       {EvalStrategy::kScanBlock, EvalStrategy::kBitset}) {
    config.eval_strategy = strategy;
    ResizeGlobalThreadPoolForTesting(1);
    auto baseline = RunSliceLine(d.x0, d.errors, config);
    ASSERT_TRUE(baseline.ok());
    ASSERT_FALSE(baseline->top_k.empty());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      ResizeGlobalThreadPoolForTesting(threads);
      auto result = RunSliceLine(d.x0, d.errors, config);
      ASSERT_TRUE(result.ok());
      ExpectIdenticalTopK(*baseline, *result,
                          "threads=" + std::to_string(threads));
    }
  }
}

TEST_F(DeterminismTest, SimdDispatchDoesNotChangeResult) {
  // The bit-packed strategy must return the same top-K no matter which
  // vector ISA the kernels dispatch at and how the candidate loop is split
  // across threads: the SIMD levels only accelerate AND/popcount and
  // zero-word skipping, never the (ascending-row) float accumulation order.
  // Baseline: forced-scalar kernels on a single thread.
  Dataset d = MakePlanted(37, 1500);
  SliceLineConfig config;
  config.k = 6;
  config.parallel = true;
  config.eval_strategy = SliceLineConfig::EvalStrategy::kBitset;
  linalg::ForceIsa(linalg::SimdIsa::kScalar);
  ResizeGlobalThreadPoolForTesting(1);
  auto baseline = RunSliceLine(d.x0, d.errors, config);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->top_k.empty());
  for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
    linalg::ForceIsa(isa);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ResizeGlobalThreadPoolForTesting(threads);
      auto result = RunSliceLine(d.x0, d.errors, config);
      ASSERT_TRUE(result.ok());
      ExpectIdenticalTopK(*baseline, *result,
                          std::string("isa=") + linalg::IsaName(isa) +
                              " threads=" + std::to_string(threads));
    }
  }
  linalg::ClearForcedIsa();
}

TEST_F(DeterminismTest, ShardCountDoesNotChangeResult) {
  Dataset d = MakePlanted(17, 1200);
  SliceLineConfig config;
  config.k = 5;
  auto local = RunSliceLine(d.x0, d.errors, config);
  ASSERT_TRUE(local.ok());
  ASSERT_FALSE(local->top_k.empty());
  for (int workers : {1, 3, 7}) {
    dist::DistOptions options;
    options.local_workers = workers;
    auto result = dist::RunSliceLineDistributed(d.x0, d.errors, config,
                                                options);
    ASSERT_TRUE(result.ok());
    ExpectIdenticalTopK(*local, *result,
                        "workers=" + std::to_string(workers));
  }
}

TEST_F(DeterminismTest, FaultInjectedRunsMatchFaultFree) {
  Dataset d = MakePlanted(19, 1200);
  SliceLineConfig config;
  config.k = 5;
  dist::DistOptions clean;
  clean.local_workers = 5;
  auto fault_free = dist::RunSliceLineDistributed(d.x0, d.errors, config,
                                                  clean);
  ASSERT_TRUE(fault_free.ok());
  ASSERT_FALSE(fault_free->top_k.empty());

  dist::DistOptions faulty = clean;
  faulty.fault.seed = 23;
  faulty.fault.transient_rate = 0.15;
  faulty.fault.straggler_rate = 0.15;
  faulty.fault.corruption_rate = 0.10;
  faulty.fault.loss_rate = 0.05;
  dist::DistFaultStats stats1;
  auto injected = dist::RunSliceLineDistributed(d.x0, d.errors, config,
                                                faulty, nullptr, &stats1);
  ASSERT_TRUE(injected.ok());
  // Recovery masks every fault exactly unless the run degraded to the
  // single-node fallback (which re-evaluates locally and is exact anyway,
  // but via a different code path).
  ExpectIdenticalTopK(*fault_free, *injected, "fault-injected");

  // The same plan replays to the same recovery actions.
  dist::DistFaultStats stats2;
  auto replay = dist::RunSliceLineDistributed(d.x0, d.errors, config, faulty,
                                              nullptr, &stats2);
  ASSERT_TRUE(replay.ok());
  ExpectIdenticalTopK(*injected, *replay, "fault replay");
  EXPECT_EQ(stats1, stats2) << stats1.Summary() << " vs " << stats2.Summary();
}

TEST_F(DeterminismTest, MetricsRegistryIsDeterministicAcrossThreadCounts) {
  // The observability layer must not be a source of nondeterminism:
  // sharded counters commute and histogram sums accumulate in fixed point,
  // so for a fixed dataset the full registry view (per-level counters,
  // evaluator counters, histogram observation counts) is identical for
  // thread-pool sizes 1, 2 and 8 — and matches the engine's own LevelStats.
  Dataset d = MakePlanted(31, 1500);
  SliceLineConfig config;
  config.k = 6;
  config.parallel = true;
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();

  struct RegistryView {
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> histogram_counts;
    bool operator==(const RegistryView&) const = default;
  };
  const auto run_and_snapshot = [&](size_t threads) {
    ResizeGlobalThreadPoolForTesting(threads);
    registry->ResetValues();
    auto result = RunSliceLine(d.x0, d.errors, config);
    EXPECT_TRUE(result.ok());
    // Registry counters must equal the engine's own per-level table.
    for (const LevelStats& level : result->levels) {
      EXPECT_EQ(registry
                    ->GetCounter(obs::LevelMetricName("native", level.level,
                                                      "candidates"))
                    ->Value(),
                level.candidates)
          << "threads=" << threads << " level " << level.level;
    }
    RegistryView view;
    for (const obs::MetricSample& sample : registry->Snapshot()) {
      if (sample.kind == obs::MetricSample::Kind::kCounter) {
        view.counters.emplace_back(sample.name, sample.counter_value);
      } else if (sample.kind == obs::MetricSample::Kind::kHistogram) {
        // Observation counts are deterministic; the observed durations
        // (and therefore sums/bucket spread) are wall-clock and are not.
        view.histogram_counts.emplace_back(sample.name,
                                           sample.histogram_count);
      }
    }
    return view;
  };

  const RegistryView baseline = run_and_snapshot(1);
  EXPECT_FALSE(baseline.counters.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const RegistryView view = run_and_snapshot(threads);
    EXPECT_EQ(baseline.counters, view.counters) << "threads=" << threads;
    EXPECT_EQ(baseline.histogram_counts, view.histogram_counts)
        << "threads=" << threads;
  }
  registry->ResetValues();
  obs::SetMetricsEnabled(was_enabled);
}

TEST_F(DeterminismTest, HarnessDeterminismCheckPassesOnGeneratedCases) {
  // The fuzzer's determinism check bundles all of the above per generated
  // case (threads {1,2,8}, shards {1,3,7}, fault plan, stats replay); run it
  // on a few generator profiles as an integration seam between tier-1 and
  // the fuzz harness.
  testing::RandomDatasetGenerator generator(29);
  for (int profile = 0; profile < testing::RandomDatasetGenerator::num_profiles();
       profile += 3) {
    testing::FuzzCase fuzz_case = generator.NextWithProfile(profile);
    EXPECT_EQ(testing::CheckDeterminism(fuzz_case), "")
        << "profile " << testing::RandomDatasetGenerator::ProfileName(profile)
        << " seed " << fuzz_case.seed;
  }
}

}  // namespace
}  // namespace sliceline::core
