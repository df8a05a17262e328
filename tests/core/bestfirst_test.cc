#include "core/sliceline_bestfirst.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exhaustive.h"
#include "core/sliceline.h"
#include "data/generators/generators.h"

namespace sliceline::core {
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
      input.x0.At(i, j) =
          static_cast<int32_t>(rng.NextUint64(1 + rng.NextUint64(max_dom))) +
          1;
    }
  }
  input.errors.resize(n);
  for (auto& e : input.errors) e = rng.NextBool(0.35) ? rng.NextDouble() : 0.0;
  return input;
}

/// The best-first engine must return the same top-K scores as the oracle
/// and the level-wise engine on every input (same exact problem, different
/// expansion order).
class BestFirstExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BestFirstExactnessTest, MatchesOracleAndLevelWise) {
  RandomInput input = MakeRandom(GetParam() + 2500, 300, 6, 4);
  SliceLineConfig config;
  config.k = 6;
  config.alpha = 0.9;
  config.min_support = 12;
  auto best_first = RunSliceLineBestFirst(input.x0, input.errors, config);
  auto level_wise = RunSliceLine(input.x0, input.errors, config);
  auto oracle = RunExhaustive(input.x0, input.errors, config);
  ASSERT_TRUE(best_first.ok());
  ASSERT_TRUE(level_wise.ok());
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(best_first->top_k.size(), oracle->top_k.size());
  for (size_t i = 0; i < oracle->top_k.size(); ++i) {
    EXPECT_EQ(best_first->top_k[i].stats.score, oracle->top_k[i].stats.score)
        << "rank " << i;
    EXPECT_EQ(best_first->top_k[i].stats.score,
              level_wise->top_k[i].stats.score)
        << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BestFirstExactnessTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(BestFirstTest, RespectsMaxLevel) {
  RandomInput input = MakeRandom(90, 400, 6, 3);
  SliceLineConfig config;
  config.k = 5;
  config.min_support = 8;
  config.max_level = 2;
  auto result = RunSliceLineBestFirst(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  for (const Slice& slice : result->top_k) EXPECT_LE(slice.level(), 2);
}

TEST(BestFirstTest, EarlyExitEvaluatesNoMoreOnConcentratedErrors) {
  // With a single dominant problem slice, the best-first order should not
  // evaluate more slices than the level-wise sweep.
  data::DatasetOptions opts;
  opts.rows = 2000;
  data::EncodedDataset ds = data::MakeSalaries(opts);
  SliceLineConfig config;
  config.k = 2;
  config.alpha = 0.95;
  auto best_first = RunSliceLineBestFirst(ds, config);
  auto level_wise = RunSliceLine(ds, config);
  ASSERT_TRUE(best_first.ok() && level_wise.ok());
  ASSERT_EQ(best_first->top_k.size(), level_wise->top_k.size());
  for (size_t i = 0; i < best_first->top_k.size(); ++i) {
    EXPECT_EQ(best_first->top_k[i].stats.score,
              level_wise->top_k[i].stats.score);
  }
  EXPECT_GT(best_first->total_evaluated, 0);
}

TEST(BestFirstTest, PerfectModelReturnsNothing) {
  RandomInput input = MakeRandom(91, 100, 3, 3);
  std::fill(input.errors.begin(), input.errors.end(), 0.0);
  auto result =
      RunSliceLineBestFirst(input.x0, input.errors, SliceLineConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->top_k.empty());
}

TEST(BestFirstTest, ValidatesInputs) {
  RandomInput input = MakeRandom(92, 50, 3, 3);
  SliceLineConfig config;
  config.alpha = 2.0;
  EXPECT_FALSE(RunSliceLineBestFirst(input.x0, input.errors, config).ok());
  config = SliceLineConfig();
  std::vector<double> wrong(10, 0.1);
  EXPECT_FALSE(RunSliceLineBestFirst(input.x0, wrong, config).ok());
}

}  // namespace
}  // namespace sliceline::core
