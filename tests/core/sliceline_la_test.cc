#include "core/sliceline_la.h"

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

/// Equivalence of the two engines: same top-K, same per-level candidate
/// counts (they implement the identical enumeration with different
/// execution strategies).
class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalenceTest, LaMatchesNative) {
  RandomInput input = MakeRandom(GetParam() + 500, 300, 6, 4);
  SliceLineConfig config;
  config.k = 6;
  config.alpha = 0.9;
  config.min_support = 12;
  auto native = RunSliceLine(input.x0, input.errors, config);
  auto la = RunSliceLineLA(input.x0, input.errors, config);
  ASSERT_TRUE(native.ok());
  ASSERT_TRUE(la.ok());
  ASSERT_EQ(native->top_k.size(), la->top_k.size());
  for (size_t i = 0; i < native->top_k.size(); ++i) {
    EXPECT_EQ(native->top_k[i].stats.score, la->top_k[i].stats.score);
    EXPECT_EQ(native->top_k[i].stats.size, la->top_k[i].stats.size);
  }
  ASSERT_EQ(native->levels.size(), la->levels.size());
  for (size_t i = 0; i < native->levels.size(); ++i) {
    EXPECT_EQ(native->levels[i].candidates, la->levels[i].candidates)
        << "level " << i + 1;
    EXPECT_EQ(native->levels[i].valid, la->levels[i].valid)
        << "level " << i + 1;
  }
}

TEST_P(EngineEquivalenceTest, LaMatchesOracle) {
  RandomInput input = MakeRandom(GetParam() + 900, 250, 5, 3);
  SliceLineConfig config;
  config.k = 5;
  config.alpha = 0.95;
  config.min_support = 10;
  auto la = RunSliceLineLA(input.x0, input.errors, config);
  auto oracle = RunExhaustive(input.x0, input.errors, config);
  ASSERT_TRUE(la.ok() && oracle.ok());
  ASSERT_EQ(la->top_k.size(), oracle->top_k.size());
  for (size_t i = 0; i < la->top_k.size(); ++i) {
    EXPECT_EQ(la->top_k[i].stats.score, oracle->top_k[i].stats.score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST(SliceLineLaTest, BlockSizeDoesNotChangeResults) {
  RandomInput input = MakeRandom(4242, 400, 5, 4);
  SliceLineConfig config;
  config.k = 5;
  config.min_support = 10;
  SliceLineResult reference;
  bool first = true;
  for (int block : {1, 4, 16, 256}) {
    config.eval_block_size = block;
    auto result = RunSliceLineLA(input.x0, input.errors, config);
    ASSERT_TRUE(result.ok());
    if (first) {
      reference = *result;
      first = false;
      continue;
    }
    ASSERT_EQ(result->top_k.size(), reference.top_k.size());
    for (size_t i = 0; i < reference.top_k.size(); ++i) {
      EXPECT_EQ(result->top_k[i].stats.score, reference.top_k[i].stats.score);
    }
  }
}

TEST(SliceLineLaTest, SalariesMatchesNative) {
  data::DatasetOptions opts;
  opts.rows = 600;
  data::EncodedDataset ds = data::MakeSalaries(opts);
  SliceLineConfig config;
  config.k = 4;
  auto native = RunSliceLine(ds, config);
  auto la = RunSliceLineLA(ds, config);
  ASSERT_TRUE(native.ok() && la.ok());
  ASSERT_EQ(native->top_k.size(), la->top_k.size());
  for (size_t i = 0; i < native->top_k.size(); ++i) {
    EXPECT_EQ(native->top_k[i].predicates, la->top_k[i].predicates);
  }
}

TEST(SliceLineLaTest, ValidatesInputs) {
  RandomInput input = MakeRandom(1, 50, 3, 3);
  SliceLineConfig config;
  config.alpha = -1;
  EXPECT_FALSE(RunSliceLineLA(input.x0, input.errors, config).ok());
  config = SliceLineConfig();
  std::vector<double> wrong(10, 0.1);
  EXPECT_FALSE(RunSliceLineLA(input.x0, wrong, config).ok());
}

TEST(SliceLineLaTest, PerfectModelReturnsNothing) {
  RandomInput input = MakeRandom(2, 100, 3, 3);
  std::fill(input.errors.begin(), input.errors.end(), 0.0);
  auto result = RunSliceLineLA(input.x0, input.errors, SliceLineConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->top_k.empty());
}

}  // namespace
}  // namespace sliceline::core
