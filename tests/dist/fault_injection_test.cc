#include "dist/fault_injection.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sliceline.h"
#include "dist/coordinator.h"

namespace sliceline::dist {
namespace {

struct RandomInput {
  data::IntMatrix x0;
  std::vector<double> errors;
};

RandomInput MakeRandom(uint64_t seed, int64_t n, int m, int max_dom) {
  Rng rng(seed);
  RandomInput input;
  input.x0 = data::IntMatrix(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      input.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(max_dom)) + 1;
    }
  }
  input.errors.resize(n);
  for (auto& e : input.errors) e = rng.NextBool(0.3) ? rng.NextDouble() : 0.0;
  return input;
}

core::SliceLineConfig TestConfig() {
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  return config;
}

struct DistRun {
  core::SliceLineResult result;
  DistCostStats cost;
  DistFaultStats faults;
  int alive_workers = 0;
};

/// Options for an in-process fleet of `workers`.
DistOptions Fleet(int workers) {
  DistOptions options;
  options.local_workers = workers;
  return options;
}

/// Runs the distributed enumeration with optional scripted faults applied to
/// every evaluation round in [0, 16) for the given workers.
DistRun RunWithFaults(const RandomInput& input, const DistOptions& options,
                      const std::vector<std::pair<int, FaultType>>& scripts) {
  FaultInjector injector(options.fault);
  for (const auto& [worker, type] : scripts) {
    for (int64_t round = 0; round < 16; ++round) {
      injector.Script(round, worker, type);
    }
  }
  auto evaluator = Coordinator::Create(input.x0, input.errors, options,
                                       std::move(injector));
  EXPECT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  auto result = core::RunSliceLineWithBackend(**evaluator, TestConfig());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return DistRun{std::move(result).value(), evaluator.value()->cost(),
                 evaluator.value()->faults(),
                 evaluator.value()->alive_workers()};
}

/// Exact (bit-identical) agreement of the top-K slices and scores.
void ExpectIdenticalTopK(const core::SliceLineResult& a,
                         const core::SliceLineResult& b) {
  ASSERT_EQ(a.top_k.size(), b.top_k.size());
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    EXPECT_EQ(a.top_k[i].predicates, b.top_k[i].predicates) << "slice " << i;
    EXPECT_EQ(a.top_k[i].stats.score, b.top_k[i].stats.score) << "slice " << i;
    EXPECT_EQ(a.top_k[i].stats.size, b.top_k[i].stats.size) << "slice " << i;
    EXPECT_EQ(a.top_k[i].stats.error_sum, b.top_k[i].stats.error_sum)
        << "slice " << i;
  }
}

TEST(FaultInjectorTest, DisabledByDefault) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.Sample(0, 0, 0), FaultType::kNone);
}

TEST(FaultInjectorTest, SampleIsDeterministicAndSeedSensitive) {
  FaultPlan plan;
  plan.seed = 7;
  plan.transient_rate = 0.3;
  plan.straggler_rate = 0.3;
  FaultInjector a(plan);
  FaultInjector b(plan);
  plan.seed = 8;
  FaultInjector c(plan);
  int diffs = 0;
  for (int64_t round = 0; round < 50; ++round) {
    for (int worker = 0; worker < 4; ++worker) {
      EXPECT_EQ(a.Sample(round, worker, 0), b.Sample(round, worker, 0));
      if (a.Sample(round, worker, 0) != c.Sample(round, worker, 0)) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);  // a different seed produces a different schedule
}

TEST(FaultInjectorTest, ScriptedFaultFiresOnFirstAttemptOnly) {
  FaultInjector injector;
  injector.Script(3, 1, FaultType::kTransient);
  EXPECT_EQ(injector.Sample(3, 1, 0), FaultType::kTransient);
  EXPECT_EQ(injector.Sample(3, 1, 1), FaultType::kNone);  // retry succeeds
  EXPECT_EQ(injector.Sample(3, 0, 0), FaultType::kNone);
  EXPECT_EQ(injector.Sample(2, 1, 0), FaultType::kNone);
}

TEST(FaultInjectorTest, ChecksumDetectsCorruption) {
  core::ExactEvalResult partial(2);
  partial.sizes = {4, 2};
  partial.error_sums[0].Add(0.5);
  partial.error_sums[1].Add(0.25);
  partial.max_errors = {0.9, 0.4};
  const uint64_t before = ChecksumPartial(partial);
  FaultPlan plan;
  plan.seed = 3;
  FaultInjector injector(plan);
  injector.CorruptPartial(0, 1, &partial);
  EXPECT_NE(ChecksumPartial(partial), before);
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest() : input_(MakeRandom(11, 600, 5, 4)) {
    fault_free_ = RunWithFaults(input_, Fleet(4), {});
  }
  RandomInput input_;
  DistRun fault_free_;
};

TEST_F(FaultToleranceTest, TransientFailureRetriesWithBackoff) {
  DistOptions options = Fleet(4);
  DistRun run = RunWithFaults(input_, options,
                              {{1, FaultType::kTransient}});
  ExpectIdenticalTopK(fault_free_.result, run.result);
  EXPECT_GT(run.faults.transient_failures, 0);
  EXPECT_GT(run.faults.retries, 0);
  EXPECT_GT(run.faults.backoff_events, 0);
  EXPECT_GT(run.faults.backoff_seconds, 0.0);
  // Every retry wave re-broadcasts: more rounds than the fault-free run.
  EXPECT_GT(run.cost.rounds, fault_free_.cost.rounds);
  EXPECT_FALSE(run.faults.fallback_local);
}

TEST_F(FaultToleranceTest, PermanentLossReshardsOntoSurvivors) {
  DistOptions options = Fleet(4);
  DistRun run = RunWithFaults(input_, options,
                              {{2, FaultType::kPermanentLoss}});
  ExpectIdenticalTopK(fault_free_.result, run.result);
  EXPECT_EQ(run.faults.workers_lost, 1);
  EXPECT_GT(run.faults.reshards, 0);
  EXPECT_EQ(run.alive_workers, 3);
  EXPECT_FALSE(run.faults.fallback_local);
}

TEST_F(FaultToleranceTest, KofNLossStillReproducesTopK) {
  // 2 of 4 workers lost (exactly the 0.5 default threshold, not past it).
  DistOptions options = Fleet(4);
  DistRun run = RunWithFaults(
      input_, options,
      {{1, FaultType::kPermanentLoss}, {3, FaultType::kPermanentLoss}});
  ExpectIdenticalTopK(fault_free_.result, run.result);
  EXPECT_EQ(run.faults.workers_lost, 2);
  EXPECT_EQ(run.alive_workers, 2);
  EXPECT_FALSE(run.faults.fallback_local);
}

TEST_F(FaultToleranceTest, CorruptionDetectedAndForcesRetryRound) {
  DistOptions options = Fleet(4);
  DistRun run = RunWithFaults(input_, options,
                              {{0, FaultType::kCorruption}});
  ExpectIdenticalTopK(fault_free_.result, run.result);
  EXPECT_GT(run.faults.corrupted_partials, 0);
  EXPECT_GT(run.faults.retries, 0);
  // Corruption detection triggers a re-evaluation wave: rounds grow.
  EXPECT_GT(run.cost.rounds, fault_free_.cost.rounds);
  EXPECT_FALSE(run.faults.fallback_local);
}

TEST_F(FaultToleranceTest, StragglerTriggersSpeculativeReexecution) {
  DistOptions options = Fleet(4);
  DistRun run = RunWithFaults(input_, options,
                              {{3, FaultType::kStraggler}});
  ExpectIdenticalTopK(fault_free_.result, run.result);
  EXPECT_GT(run.faults.stragglers, 0);
  // With 4 workers and no losses a survivor is always available, so every
  // straggling round launches exactly one backup copy. (The backup doubles
  // the straggler's *accounted* compute, but worker_busy_seconds is
  // measured wall-clock — comparing it across two separately-timed runs is
  // load-sensitive, so the counters carry the assertion.)
  EXPECT_EQ(run.faults.speculative_reexecutions, run.faults.stragglers);
}

TEST_F(FaultToleranceTest, StragglerWithoutSpeculationPaysDelay) {
  DistOptions options = Fleet(4);
  options.speculative_execution = false;
  options.fault.straggler_delay_seconds = 1.5;
  DistRun run = RunWithFaults(input_, options,
                              {{3, FaultType::kStraggler}});
  ExpectIdenticalTopK(fault_free_.result, run.result);
  EXPECT_GT(run.faults.stragglers, 0);
  EXPECT_EQ(run.faults.speculative_reexecutions, 0);
  // Each straggling round adds the injected delay to the critical path.
  EXPECT_GT(run.cost.critical_path_seconds, 1.5);
}

TEST_F(FaultToleranceTest, TooManyLossesFallBackToLocal) {
  DistOptions options = Fleet(4);  // losing 3 of 4 exceeds 0.5 lost
  DistRun run = RunWithFaults(input_, options,
                              {{0, FaultType::kPermanentLoss},
                               {1, FaultType::kPermanentLoss},
                               {2, FaultType::kPermanentLoss}});
  EXPECT_TRUE(run.faults.fallback_local);
  EXPECT_EQ(run.faults.workers_lost, 3);
  // The degraded run computes over the full matrix; error sums are exact
  // either way, so every statistic is identical.
  ASSERT_EQ(fault_free_.result.top_k.size(), run.result.top_k.size());
  for (size_t i = 0; i < run.result.top_k.size(); ++i) {
    EXPECT_EQ(fault_free_.result.top_k[i].predicates,
              run.result.top_k[i].predicates);
    EXPECT_EQ(fault_free_.result.top_k[i].stats.size,
              run.result.top_k[i].stats.size);
    EXPECT_EQ(fault_free_.result.top_k[i].stats.score,
              run.result.top_k[i].stats.score);
  }
}

TEST_F(FaultToleranceTest, ExhaustedRetryBudgetDegradesGracefully) {
  DistOptions options = Fleet(4);
  options.max_retries = 2;
  options.fault.seed = 5;
  options.fault.transient_rate = 1.0;  // every attempt of every round fails
  DistRun run = RunWithFaults(input_, options, {});
  EXPECT_TRUE(run.faults.fallback_local);
  ASSERT_EQ(fault_free_.result.top_k.size(), run.result.top_k.size());
  for (size_t i = 0; i < run.result.top_k.size(); ++i) {
    EXPECT_EQ(fault_free_.result.top_k[i].predicates,
              run.result.top_k[i].predicates);
    EXPECT_EQ(fault_free_.result.top_k[i].stats.score,
              run.result.top_k[i].stats.score);
  }
}

TEST_F(FaultToleranceTest, RandomScheduleIsDeterministicPerSeed) {
  DistOptions options = Fleet(6);
  options.fault.seed = 99;
  options.fault.transient_rate = 0.15;
  options.fault.straggler_rate = 0.1;
  options.fault.corruption_rate = 0.1;
  options.fault.loss_rate = 0.02;
  DistRun first = RunWithFaults(input_, options, {});
  DistRun second = RunWithFaults(input_, options, {});
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_EQ(first.cost.rounds, second.cost.rounds);
  ExpectIdenticalTopK(first.result, second.result);
  if (!first.faults.fallback_local) {
    // Bit-identical to a fault-free run over the same shard layout.
    DistOptions clean = options;
    clean.fault = FaultPlan{};
    ExpectIdenticalTopK(RunWithFaults(input_, clean, {}).result,
                        first.result);
  }
}

TEST_F(FaultToleranceTest, CorruptedBasicStatsAreRetried) {
  // Setup is round -1: one out-of-range value in worker 2's first
  // basic_stats reply must be rejected and the shard re-requested.
  FaultInjector injector;
  injector.Script(-1, 2, FaultType::kCorruption);
  auto eval = Coordinator::Create(input_.x0, input_.errors, Fleet(4),
                                  std::move(injector));
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  auto clean = Coordinator::Create(input_.x0, input_.errors, Fleet(4));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ((*eval)->faults().corrupted_partials, 1);
  EXPECT_EQ((*eval)->faults().retries, 1);
  EXPECT_FALSE((*eval)->faults().fallback_local);
  EXPECT_EQ((*eval)->basic_sizes(), (*clean)->basic_sizes());
  EXPECT_EQ((*eval)->basic_error_sums(), (*clean)->basic_error_sums());
  EXPECT_EQ((*eval)->basic_max_errors(), (*clean)->basic_max_errors());
  EXPECT_EQ((*eval)->total_error(), (*clean)->total_error());
}

TEST(DistFactoryTest, CreateValidatesInputs) {
  RandomInput input = MakeRandom(13, 50, 2, 3);
  DistOptions options;
  options.local_workers = 0;
  EXPECT_FALSE(
      Coordinator::Create(input.x0, input.errors, options).ok());
  options.local_workers = 2;
  std::vector<double> wrong(10, 0.1);
  auto mismatch = Coordinator::Create(input.x0, wrong, options);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  options.max_lost_fraction = 1.5;
  EXPECT_FALSE(
      Coordinator::Create(input.x0, input.errors, options).ok());
  options.max_lost_fraction = 0.5;
  options.max_retries = -1;
  EXPECT_FALSE(
      Coordinator::Create(input.x0, input.errors, options).ok());
  options.max_retries = 3;
  EXPECT_TRUE(
      Coordinator::Create(input.x0, input.errors, options).ok());
}

TEST(DistFaultStatsTest, SummaryMentionsEveryCounter) {
  DistFaultStats stats;
  stats.retries = 2;
  stats.fallback_local = true;
  const std::string s = stats.Summary();
  EXPECT_NE(s.find("retries=2"), std::string::npos);
  EXPECT_NE(s.find("fallback=yes"), std::string::npos);
}

}  // namespace
}  // namespace sliceline::dist
