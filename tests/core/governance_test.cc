// Run-level governance: deadlines (simulated time), cooperative
// cancellation across threads, memory-budget degradation and hard stops,
// and the structural RunOutcome invariants -- on every engine.
#include "core/governance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "core/candidates.h"
#include "core/exhaustive.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "linalg/dense_matrix.h"
#include "testing/checks.h"

namespace sliceline::core {
namespace {

using ::sliceline::testing::Engine;
using ::sliceline::testing::kGovernanceEngines;

/// A dataset big enough that every engine enumerates several levels.
struct Input {
  data::IntMatrix x0;
  std::vector<double> errors;
};

Input MakeInput(uint64_t seed, int64_t n = 600, int m = 6, int max_dom = 3) {
  Rng rng(seed);
  Input input;
  input.x0 = data::IntMatrix(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      input.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(max_dom)) + 1;
    }
  }
  input.errors.resize(n);
  for (auto& e : input.errors) {
    e = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;
  }
  return input;
}

SliceLineConfig BaseConfig() {
  SliceLineConfig config;
  config.k = 4;
  config.min_support = 8;
  return config;
}

TEST(GovernanceTest, UngovernedRunReportsCompletedOutcome) {
  const Input input = MakeInput(11);
  for (const Engine& engine : kGovernanceEngines) {
    auto result = engine.run(input.x0, input.errors, BaseConfig());
    ASSERT_TRUE(result.ok()) << engine.name;
    EXPECT_EQ(result->outcome.termination, RunOutcome::Termination::kCompleted)
        << engine.name;
    EXPECT_FALSE(result->outcome.partial) << engine.name;
    EXPECT_TRUE(result->outcome.WellFormed()) << engine.name;
  }
}

TEST(GovernanceTest, PreCancelledRunReturnsPartialBestSoFar) {
  const Input input = MakeInput(12);
  for (const Engine& engine : kGovernanceEngines) {
    SliceLineConfig config = BaseConfig();
    RunContext ctx;
    ctx.cancellation().Cancel();
    config.run_context = &ctx;
    auto result = engine.run(input.x0, input.errors, config);
    ASSERT_TRUE(result.ok()) << engine.name;
    EXPECT_TRUE(result->outcome.partial) << engine.name;
    EXPECT_EQ(result->outcome.termination, RunOutcome::Termination::kCancelled)
        << engine.name;
    EXPECT_TRUE(result->outcome.WellFormed()) << engine.name;
  }
}

TEST(GovernanceTest, CrossThreadCancellationStopsARunningEnumeration) {
  // A worker thread starts the run against a gate the main thread opens
  // only after it has already cancelled, so the poll result is
  // deterministic regardless of scheduling.
  const Input input = MakeInput(13, /*n=*/2000, /*m=*/8, /*max_dom=*/4);
  for (const Engine& engine : kGovernanceEngines) {
    SliceLineConfig config = BaseConfig();
    config.min_support = 2;
    RunContext ctx;
    config.run_context = &ctx;
    StatusOr<SliceLineResult> result = Status::Internal("not run");
    std::thread worker([&] {
      result = engine.run(input.x0, input.errors, config);
    });
    ctx.cancellation().Cancel();
    worker.join();
    ASSERT_TRUE(result.ok()) << engine.name;
    EXPECT_TRUE(result->outcome.WellFormed()) << engine.name;
    // The cancel raced run start, so either it finished first (tiny chance
    // on a loaded machine is impossible here: the dataset enumerates far
    // longer than one poll interval) or it observed the flag.
    EXPECT_TRUE(result->outcome.partial ||
                result->outcome.termination ==
                    RunOutcome::Termination::kCompleted)
        << engine.name;
  }
}

TEST(GovernanceTest, SimulatedDeadlineStopsMidEnumerationDeterministically) {
  const Input input = MakeInput(14);
  for (const Engine& engine : kGovernanceEngines) {
    SliceLineConfig config = BaseConfig();
    config.min_support = 2;
    // Every governance poll advances simulated time by 1s; a 5s deadline
    // therefore fires on the 6th poll, long before the run is done.
    SimulatedClock clock(0.0, 1.0);
    RunContext ctx;
    ctx.set_clock(&clock);
    ctx.set_deadline_seconds(5.0);
    config.run_context = &ctx;
    auto result = engine.run(input.x0, input.errors, config);
    ASSERT_TRUE(result.ok()) << engine.name;
    EXPECT_TRUE(result->outcome.partial) << engine.name;
    EXPECT_EQ(result->outcome.termination,
              RunOutcome::Termination::kDeadlineExceeded)
        << engine.name;
    EXPECT_GT(result->outcome.stopped_at_level, 0) << engine.name;
    EXPECT_TRUE(result->outcome.WellFormed()) << engine.name;

    // Deterministic: the same simulated schedule stops at the same point.
    SimulatedClock clock2(0.0, 1.0);
    RunContext ctx2;
    ctx2.set_clock(&clock2);
    ctx2.set_deadline_seconds(5.0);
    config.run_context = &ctx2;
    auto again = engine.run(input.x0, input.errors, config);
    ASSERT_TRUE(again.ok()) << engine.name;
    ASSERT_EQ(result->top_k.size(), again->top_k.size()) << engine.name;
    for (size_t i = 0; i < result->top_k.size(); ++i) {
      EXPECT_EQ(result->top_k[i].stats.score, again->top_k[i].stats.score)
          << engine.name << " rank " << i;
    }
    EXPECT_EQ(result->outcome.stopped_at_level,
              again->outcome.stopped_at_level)
        << engine.name;
  }
}

TEST(GovernanceTest, SoftMemoryPressureClimbsTheDegradationLadder) {
  const Input input = MakeInput(15, /*n=*/1200, /*m=*/8, /*max_dom=*/4);
  for (const Engine& engine : kGovernanceEngines) {
    if (engine.run == RunExhaustive) continue;  // oracle does not degrade
    SliceLineConfig config = BaseConfig();
    config.min_support = 2;
    // Pre-charge the budget to sit between the soft (80%) and hard limits:
    // sustained soft pressure without a hard stop.
    MemoryBudget budget(int64_t{1} << 30);
    budget.Charge((int64_t{1} << 30) * 9 / 10);
    RunContext ctx;
    ctx.set_memory_budget(&budget);
    config.run_context = &ctx;
    auto result = engine.run(input.x0, input.errors, config);
    ASSERT_TRUE(result.ok()) << engine.name;
    EXPECT_EQ(result->outcome.termination, RunOutcome::Termination::kDegraded)
        << engine.name;
    EXPECT_TRUE(result->outcome.partial) << engine.name;
    EXPECT_GT(result->outcome.degradation_steps, 0) << engine.name;
    EXPECT_GT(result->outcome.sigma_raised_to, config.min_support)
        << engine.name;
    EXPECT_GT(result->outcome.peak_memory_bytes, 0) << engine.name;
    EXPECT_TRUE(result->outcome.WellFormed()) << engine.name;
  }
}

TEST(GovernanceTest, HardMemoryLimitStopsTheRun) {
  const Input input = MakeInput(16);
  for (const Engine& engine : kGovernanceEngines) {
    SliceLineConfig config = BaseConfig();
    config.min_support = 2;
    MemoryBudget budget(1024);
    budget.Charge(4096);  // instantly over the hard limit
    RunContext ctx;
    ctx.set_memory_budget(&budget);
    config.run_context = &ctx;
    auto result = engine.run(input.x0, input.errors, config);
    ASSERT_TRUE(result.ok()) << engine.name;
    EXPECT_TRUE(result->outcome.partial) << engine.name;
    EXPECT_EQ(result->outcome.termination,
              RunOutcome::Termination::kBudgetExhausted)
        << engine.name;
    EXPECT_TRUE(result->outcome.WellFormed()) << engine.name;
  }
}

TEST(GovernanceTest, GovernedRunWithoutLimitsMatchesUngovernedTopK) {
  const Input input = MakeInput(17);
  for (const Engine& engine : kGovernanceEngines) {
    SliceLineConfig config = BaseConfig();
    auto plain = engine.run(input.x0, input.errors, config);
    RunContext ctx;
    config.run_context = &ctx;
    auto governed = engine.run(input.x0, input.errors, config);
    ASSERT_TRUE(plain.ok() && governed.ok()) << engine.name;
    EXPECT_FALSE(governed->outcome.partial) << engine.name;
    ASSERT_EQ(plain->top_k.size(), governed->top_k.size()) << engine.name;
    for (size_t i = 0; i < plain->top_k.size(); ++i) {
      EXPECT_EQ(plain->top_k[i].stats.score, governed->top_k[i].stats.score)
          << engine.name << " rank " << i;
      EXPECT_EQ(plain->top_k[i].predicates, governed->top_k[i].predicates)
          << engine.name << " rank " << i;
    }
  }
}

/// Cancels its run context on the n-th time query, so "the cancel arrives
/// while the engine is busy" happens at a reproducible poll.
class CancelOnQueryClock : public Clock {
 public:
  CancelOnQueryClock(RunContext* ctx, int n) : ctx_(ctx), n_(n) {}
  double NowSeconds() const override {
    if (++queries_ == n_) ctx_->cancellation().Cancel();
    return 0.0;
  }

 private:
  RunContext* ctx_;
  int n_;
  mutable std::atomic<int> queries_{0};
};

TEST(GovernanceTest, CancellationDuringCandidateGenerationIsReported) {
  const Input input = MakeInput(15, /*n=*/2000, /*m=*/8, /*max_dom=*/4);
  for (bool parallel : {false, true}) {
    SliceLineConfig config = BaseConfig();
    config.min_support = 2;
    config.parallel = parallel;
    // The clock never reaches the deadline; setting one makes every poll
    // query it. Query 1 is the level-2 boundary check, query 2 the first
    // poll inside level-2 candidate generation.
    RunContext ctx;
    CancelOnQueryClock clock(&ctx, 2);
    ctx.set_clock(&clock);
    ctx.set_deadline_seconds(1.0);
    config.run_context = &ctx;
    auto result = RunSliceLine(input.x0, input.errors, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->outcome.termination,
              RunOutcome::Termination::kCancelled);
    EXPECT_EQ(result->outcome.stopped_at_level, 2);
    ASSERT_EQ(result->levels.size(), 1u) << "level 2 must not be reported";
    EXPECT_TRUE(result->outcome.WellFormed());
  }
}

TEST(GovernanceTest, CandidateGenerationPollsAndChargesTheRunContext) {
  const data::FeatureOffsets offsets =
      data::OffsetsFromDomains({4, 4, 4, 4, 4, 4});
  const ScoringContext context(1000, 100.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  for (int64_t c = 0; c < offsets.total; ++c) {
    prev.Add({c});
    stats.sizes.push_back(100);
    stats.error_sums.push_back(50);
    stats.max_errors.push_back(1.0);
  }
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  CandidateGenStats gen;
  MemoryBudget budget(0);
  {
    ScopedMemoryBudget scoped(&budget);
    const SliceSet all = GeneratePairCandidates(
        prev, stats, 2, context, 10, 0.0, config, offsets, &bounds, &gen);
    EXPECT_EQ(all.size(), 15 * 16);  // one per pair of features x codes
  }
  EXPECT_GT(budget.peak_bytes(), 0);  // the pair records were charged
  EXPECT_EQ(budget.used_bytes(), 0);

  RunContext ctx;
  ctx.cancellation().Cancel();
  config.run_context = &ctx;
  const SliceSet none = GeneratePairCandidates(
      prev, stats, 2, context, 10, 0.0, config, offsets, &bounds, &gen);
  EXPECT_EQ(none.size(), 0);
  EXPECT_EQ(gen.pairs, 0);  // stopped before the first outer parent
}

TEST(GovernanceTest, HardMemoryLimitStopsAGenerationLevelMidway) {
  // A level-5 frontier as constant columns leave it without deduplication:
  // every 4-column slice over 8 one-code features, 50 copies each, all with
  // the same stats. Its ~1.4M compatible pairs would need ~45 MB of records.
  const int level = 5;
  const data::FeatureOffsets offsets =
      data::OffsetsFromDomains({1, 1, 1, 1, 1, 1, 1, 1});
  const ScoringContext context(100, 50.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  for (int mask = 0; mask < 256; ++mask) {
    if (__builtin_popcount(mask) != level - 1) continue;
    std::vector<int64_t> columns;
    for (int64_t c = 0; c < 8; ++c) {
      if ((mask >> c) & 1) columns.push_back(c);
    }
    for (int copy = 0; copy < 50; ++copy) {
      prev.Add(columns);
      stats.sizes.push_back(100);
      stats.error_sums.push_back(50);
      stats.max_errors.push_back(1.0);
    }
  }
  constexpr int64_t kLimit = 1 << 20;
  MemoryBudget budget(kLimit);
  RunContext ctx;
  ctx.set_memory_budget(&budget);
  SliceLineConfig config;
  config.deduplicate = false;
  config.parallel = false;  // one range, so one poll stride of overshoot
  config.run_context = &ctx;
  std::vector<ParentBounds> bounds;
  CandidateGenStats gen;
  {
    ScopedMemoryBudget scoped(&budget);
    const SliceSet cands = GeneratePairCandidates(
        prev, stats, level, context, 10, 0.0, config, offsets, &bounds, &gen);
    EXPECT_EQ(cands.size(), 0);
  }
  EXPECT_EQ(gen.stop, StopReason::kBudgetExhausted);
  // One poll stride: 64 outer parents, each compatible with the 50 copies
  // of 4 x 4 other keys, one record of level + 3 ints per pair.
  const int64_t stride =
      64 * (4 * 4 * 50) * (level + 3) * static_cast<int64_t>(sizeof(int32_t));
  EXPECT_GT(budget.peak_bytes(), kLimit);
  EXPECT_LE(budget.peak_bytes(), kLimit + stride);
  EXPECT_EQ(budget.used_bytes(), 0);

  // Through the engine: constant columns without deduplication multiply
  // every key's copies level by level; the run stops with the budget
  // exhausted instead of reading the discarded level as a natural end.
  data::IntMatrix x0(5, 8);
  for (int64_t i = 0; i < 5; ++i) {
    for (int j = 0; j < 8; ++j) x0.At(i, j) = 1;
  }
  SliceLineConfig run_config;
  run_config.min_support = 1;
  run_config.deduplicate = false;
  MemoryBudget run_budget(2 * kLimit);
  RunContext run_ctx;
  run_ctx.set_memory_budget(&run_budget);
  run_config.run_context = &run_ctx;
  auto result = RunSliceLine(x0, {0.0, 0.0, 0.0, 0.0, 1.0}, run_config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.termination,
            RunOutcome::Termination::kBudgetExhausted);
  EXPECT_TRUE(result->outcome.WellFormed());
  EXPECT_LT(run_budget.peak_bytes(), 8 * kLimit);
}

TEST(GovernanceTest, CancellableParallelForRangeSkipsChunksAfterStop) {
  ThreadPool pool(4);
  RunContext ctx;
  std::atomic<int64_t> ran{0};
  EXPECT_TRUE(pool.ParallelForRange(1000, &ctx, [&](size_t b, size_t e) {
    ran += static_cast<int64_t>(e - b);
  }));
  EXPECT_EQ(ran.load(), 1000);

  ctx.cancellation().Cancel();
  std::atomic<int64_t> ran_after{0};
  EXPECT_FALSE(pool.ParallelForRange(1000, &ctx, [&](size_t b, size_t e) {
    ran_after += static_cast<int64_t>(e - b);
  }));
  EXPECT_EQ(ran_after.load(), 0);
}

TEST(GovernanceTest, MemoryBudgetAccountingAndPressureFlags) {
  MemoryBudget budget(1000);
  EXPECT_FALSE(budget.OverSoftLimit());
  budget.Charge(700);
  EXPECT_EQ(budget.used_bytes(), 700);
  EXPECT_FALSE(budget.OverSoftLimit());
  budget.Charge(200);
  EXPECT_TRUE(budget.OverSoftLimit());
  EXPECT_FALSE(budget.OverHardLimit());
  budget.Charge(200);
  EXPECT_TRUE(budget.OverHardLimit());
  EXPECT_EQ(budget.peak_bytes(), 1100);
  budget.Release(900);
  EXPECT_FALSE(budget.OverSoftLimit());
  EXPECT_EQ(budget.peak_bytes(), 1100);

  // Unlimited budget only accounts.
  MemoryBudget unlimited(0);
  unlimited.Charge(int64_t{1} << 40);
  EXPECT_FALSE(unlimited.OverSoftLimit());
  EXPECT_FALSE(unlimited.OverHardLimit());
}

TEST(GovernanceTest, ScopedBudgetChargesMatrixAllocations) {
  MemoryBudget budget(0);
  {
    ScopedMemoryBudget scope(&budget);
    linalg::DenseMatrix m(64, 64);
    EXPECT_GE(budget.used_bytes(),
              static_cast<int64_t>(64 * 64 * sizeof(double)));
  }
  EXPECT_EQ(budget.used_bytes(), 0);  // released with the matrix
}

TEST(GovernanceTest, RunOutcomeWellFormedRejectsInconsistentRecords) {
  RunOutcome ok;
  EXPECT_TRUE(ok.WellFormed());

  RunOutcome bad_partial;
  bad_partial.partial = true;  // but termination says completed
  EXPECT_FALSE(bad_partial.WellFormed());

  RunOutcome bad_degraded;
  bad_degraded.termination = RunOutcome::Termination::kDegraded;
  bad_degraded.partial = true;
  bad_degraded.degradation_steps = 0;  // degraded without any step
  EXPECT_FALSE(bad_degraded.WellFormed());

  RunOutcome bad_counters;
  bad_counters.sigma_raised_to = 64;  // raised sigma without a step
  EXPECT_FALSE(bad_counters.WellFormed());
}

TEST(GovernanceTest, StopReasonStatusBridgeRoundTrips) {
  for (StopReason reason :
       {StopReason::kCancelled, StopReason::kDeadlineExceeded,
        StopReason::kBudgetExhausted}) {
    const Status status = StopReasonToStatus(reason);
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(IsGovernanceStatus(status));
    EXPECT_EQ(StopReasonFromStatus(status), reason);
  }
  EXPECT_TRUE(StopReasonToStatus(StopReason::kNone).ok());
  EXPECT_FALSE(IsGovernanceStatus(Status::Internal("boom")));
  EXPECT_EQ(StopReasonFromStatus(Status::Internal("boom")), StopReason::kNone);
}

}  // namespace
}  // namespace sliceline::core
