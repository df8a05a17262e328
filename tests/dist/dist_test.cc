#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "core/sliceline.h"
#include "data/generators/generators.h"
#include "dist/partition.h"

namespace sliceline::dist {
namespace {

TEST(PartitionTest, CoversAllRowsWithoutOverlap) {
  for (int workers : {1, 3, 7, 16}) {
    std::vector<RowRange> parts = PartitionRows(100, workers);
    int64_t covered = 0;
    int64_t expected_begin = 0;
    for (const RowRange& r : parts) {
      EXPECT_EQ(r.begin, expected_begin);
      EXPECT_GE(r.size(), 0);
      covered += r.size();
      expected_begin = r.end;
    }
    EXPECT_EQ(covered, 100);
  }
}

TEST(PartitionTest, MoreWorkersThanRows) {
  std::vector<RowRange> parts = PartitionRows(3, 10);
  EXPECT_EQ(parts.size(), 3u);
  for (const RowRange& r : parts) EXPECT_EQ(r.size(), 1);
}

TEST(PartitionTest, BalancedSizes) {
  std::vector<RowRange> parts = PartitionRows(10, 3);
  EXPECT_EQ(parts[0].size(), 4);
  EXPECT_EQ(parts[1].size(), 3);
  EXPECT_EQ(parts[2].size(), 3);
}

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

class DistributedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedEquivalenceTest, MatchesLocalExecution) {
  const int workers = GetParam();
  RandomInput input = MakeRandom(11, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  DistOptions options;
  options.local_workers = workers;
  DistCostStats cost;
  auto distributed = RunSliceLineDistributed(input.x0, input.errors, config,
                                             options, &cost);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(distributed.ok());
  ASSERT_EQ(local->top_k.size(), distributed->top_k.size());
  for (size_t i = 0; i < local->top_k.size(); ++i) {
    EXPECT_EQ(local->top_k[i].stats.score, distributed->top_k[i].stats.score);
    EXPECT_EQ(local->top_k[i].stats.error_sum,
              distributed->top_k[i].stats.error_sum);
    EXPECT_EQ(local->top_k[i].stats.size, distributed->top_k[i].stats.size);
    EXPECT_EQ(local->top_k[i].predicates, distributed->top_k[i].predicates);
  }
  // Per-level enumeration identical (same pruning decisions).
  ASSERT_EQ(local->levels.size(), distributed->levels.size());
  for (size_t i = 0; i < local->levels.size(); ++i) {
    EXPECT_EQ(local->levels[i].candidates, distributed->levels[i].candidates);
  }
  if (distributed->levels.size() > 1) {
    EXPECT_GT(cost.rounds, 0);
    EXPECT_GT(cost.broadcast_bytes, 0);
    EXPECT_GT(cost.gather_bytes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, DistributedEquivalenceTest,
                         ::testing::Values(1, 2, 4, 9));

TEST(DistributedTest, ShardDomainSmallerThanGlobal) {
  // A code that appears only in the last shard must still be handled
  // correctly by every worker (global offsets are shared).
  data::IntMatrix x0(100, 1);
  for (int64_t i = 0; i < 100; ++i) x0.At(i, 0) = 1;
  x0.At(99, 0) = 5;  // only the last row has the high code
  std::vector<double> errors(100, 0.1);
  errors[99] = 1.0;
  core::SliceLineConfig config;
  config.min_support = 1;
  config.k = 3;
  DistOptions options;
  options.local_workers = 4;
  auto result =
      RunSliceLineDistributed(x0, errors, config, options, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->top_k.empty());
  EXPECT_EQ(result->top_k[0].predicates[0], (std::pair<int, int32_t>{0, 5}));
  EXPECT_EQ(result->top_k[0].stats.size, 1);
}

TEST(DistributedTest, CostEstimateUsesFixedInterconnect) {
  // 1.25e9 bytes/s (~10 GbE) plus 5 ms per round.
  DistCostStats cost;
  cost.rounds = 10;
  cost.broadcast_bytes = 1000000000;
  cost.gather_bytes = 250000000;
  EXPECT_NEAR(cost.EstimatedCommSeconds(), 1.0 + 0.05, 1e-9);
}

TEST(DistributedTest, ValidatesInputs) {
  RandomInput input = MakeRandom(13, 50, 2, 3);
  DistOptions options;
  options.local_workers = 0;
  EXPECT_FALSE(RunSliceLineDistributed(input.x0, input.errors,
                                       core::SliceLineConfig(), options,
                                       nullptr)
                   .ok());
  options.local_workers = 2;
  std::vector<double> wrong(10, 0.1);
  EXPECT_FALSE(RunSliceLineDistributed(input.x0, wrong,
                                       core::SliceLineConfig(), options,
                                       nullptr)
                   .ok());
  // Both fleet kinds at once is ambiguous.
  options.endpoints = {WorkerEndpoint{"", 1}};
  EXPECT_FALSE(RunSliceLineDistributed(input.x0, input.errors,
                                       core::SliceLineConfig(), options,
                                       nullptr)
                   .ok());
}

TEST(DistributedTest, NonFiniteOrNegativeErrorsAreInvalidOnEitherFleet) {
  RandomInput input = MakeRandom(13, 50, 2, 3);
  DistOptions in_process;
  in_process.local_workers = 2;
  // Nothing listens on port 1: the check must fire before any connect.
  DistOptions sockets;
  sockets.endpoints = {WorkerEndpoint{"", 1}, WorkerEndpoint{"", 1}};
  for (double bad : {std::nan(""), -0.5,
                     std::numeric_limits<double>::infinity()}) {
    std::vector<double> errors = input.errors;
    errors[7] = bad;
    for (const DistOptions& options : {in_process, sockets}) {
      auto eval = Coordinator::Create(input.x0, errors, options);
      ASSERT_FALSE(eval.ok()) << "error " << bad;
      EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(eval.status().message(),
                "errors must be non-negative and finite (row 7)");
    }
  }
}

}  // namespace
}  // namespace sliceline::dist
