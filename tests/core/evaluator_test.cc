#include "core/evaluator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace sliceline::core {
namespace {

struct Fixture {
  data::IntMatrix x0;
  data::FeatureOffsets offsets;
  std::vector<double> errors;
};

Fixture RandomFixture(uint64_t seed, int64_t n, int m, int max_dom) {
  Rng rng(seed);
  Fixture f;
  f.x0 = data::IntMatrix(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      f.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(max_dom)) + 1;
    }
  }
  f.offsets = data::ComputeOffsets(f.x0);
  f.errors.resize(n);
  for (auto& e : f.errors) e = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;
  return f;
}

/// Brute-force slice statistics by scanning every row.
void BruteForce(const Fixture& f, const std::vector<int64_t>& cols,
                double* ss, double* se, double* sm) {
  *ss = *se = *sm = 0.0;
  for (int64_t i = 0; i < f.x0.rows(); ++i) {
    bool match = true;
    for (int64_t c : cols) {
      const int feat = f.offsets.FeatureOfColumn(c);
      if (f.x0.At(i, feat) != f.offsets.CodeOfColumn(c)) {
        match = false;
        break;
      }
    }
    if (match) {
      *ss += 1.0;
      *se += f.errors[i];
      *sm = std::max(*sm, f.errors[i]);
    }
  }
}

TEST(SliceSetTest, AddAndAccess) {
  SliceSet set;
  EXPECT_EQ(set.size(), 0);
  set.Add({1, 5});
  set.Add({0, 3, 7});
  EXPECT_EQ(set.size(), 2);
  EXPECT_EQ(set.Length(0), 2);
  EXPECT_EQ(set.Length(1), 3);
  EXPECT_EQ(set.Columns(1)[2], 7);
}

TEST(EvaluatorTest, BasicStatsMatchBruteForce) {
  Fixture f = RandomFixture(1, 500, 4, 5);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  for (int64_t c = 0; c < f.offsets.total; ++c) {
    double ss, se, sm;
    BruteForce(f, {c}, &ss, &se, &sm);
    EXPECT_DOUBLE_EQ(static_cast<double>(eval.basic_sizes()[c]), ss);
    EXPECT_NEAR(eval.basic_error_sums()[c], se, 1e-9);
    EXPECT_DOUBLE_EQ(eval.basic_max_errors()[c], sm);
  }
  EXPECT_EQ(eval.n(), 500);
}

class EvaluatorStrategyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EvaluatorStrategyTest, MatchesBruteForce) {
  const auto [strategy, block] = GetParam();
  Fixture f = RandomFixture(7, 400, 5, 4);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);

  // Random multi-column slices (distinct features).
  Rng rng(13);
  SliceSet set;
  std::vector<std::vector<int64_t>> expected_cols;
  for (int s = 0; s < 40; ++s) {
    const int len = 1 + static_cast<int>(rng.NextUint64(3));
    std::vector<int> feats = {0, 1, 2, 3, 4};
    rng.Shuffle(feats);
    std::vector<int64_t> cols;
    for (int k = 0; k < len; ++k) {
      const int32_t code = static_cast<int32_t>(
          rng.NextUint64(f.offsets.fdom[feats[k]])) + 1;
      cols.push_back(f.offsets.ColumnOf(feats[k], code));
    }
    std::sort(cols.begin(), cols.end());
    set.Add(cols);
    expected_cols.push_back(cols);
  }

  SliceLineConfig config;
  config.eval_strategy = static_cast<SliceLineConfig::EvalStrategy>(strategy);
  config.eval_block_size = block;
  config.parallel = block % 2 == 0;  // exercise both code paths
  EvalResult result = eval.Evaluate(set, config).value();

  for (size_t s = 0; s < expected_cols.size(); ++s) {
    double ss, se, sm;
    BruteForce(f, expected_cols[s], &ss, &se, &sm);
    EXPECT_DOUBLE_EQ(result.sizes[s], ss) << "slice " << s;
    EXPECT_NEAR(result.error_sums[s], se, 1e-9) << "slice " << s;
    EXPECT_DOUBLE_EQ(result.max_errors[s], sm) << "slice " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndBlocks, EvaluatorStrategyTest,
    ::testing::Values(std::make_tuple(1, 1),    // kScanBlock, task-parallel
                      std::make_tuple(1, 4),
                      std::make_tuple(1, 16),
                      std::make_tuple(1, 1000), // one block for all slices
                      std::make_tuple(2, 1),    // kBitset
                      std::make_tuple(2, 16)));

TEST(EvaluatorTest, StrategiesAgreeOnLargerInput) {
  Fixture f = RandomFixture(21, 3000, 6, 8);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  Rng rng(23);
  SliceSet set;
  for (int s = 0; s < 100; ++s) {
    std::vector<int64_t> cols;
    const int f1 = static_cast<int>(rng.NextUint64(6));
    int f2 = static_cast<int>(rng.NextUint64(6));
    if (f2 == f1) f2 = (f1 + 1) % 6;
    cols.push_back(f.offsets.ColumnOf(
        f1, static_cast<int32_t>(rng.NextUint64(f.offsets.fdom[f1])) + 1));
    cols.push_back(f.offsets.ColumnOf(
        f2, static_cast<int32_t>(rng.NextUint64(f.offsets.fdom[f2])) + 1));
    std::sort(cols.begin(), cols.end());
    set.Add(cols);
  }
  SliceLineConfig scan_cfg;
  scan_cfg.eval_strategy = SliceLineConfig::EvalStrategy::kScanBlock;
  scan_cfg.eval_block_size = 8;
  SliceLineConfig bitset_cfg;
  bitset_cfg.eval_strategy = SliceLineConfig::EvalStrategy::kBitset;
  EvalResult b = eval.Evaluate(set, scan_cfg).value();
  EvalResult c = eval.Evaluate(set, bitset_cfg).value();
  EXPECT_EQ(b.sizes, c.sizes);
  // One row tile: both strategies run the same ascending-row chains.
  EXPECT_EQ(b.error_sums, c.error_sums);
  EXPECT_EQ(b.max_errors, c.max_errors);
}

TEST(EvaluatorTest, ScanBlockIsBitIdenticalAcrossThreadCounts) {
  // Several row tiles, so partial sums are merged; the merge is in tile
  // order, not completion order.
  Fixture f = RandomFixture(43, 20000, 4, 3);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  SliceSet set;
  for (int64_t c = 0; c + 3 < f.offsets.total; ++c) {
    set.Add({c});
    set.Add({c, c + 3});
  }
  SliceLineConfig cfg;
  cfg.eval_strategy = SliceLineConfig::EvalStrategy::kScanBlock;
  cfg.eval_block_size = 5;
  cfg.parallel = false;
  const EvalResult serial = eval.Evaluate(set, cfg).value();
  cfg.parallel = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    ResizeGlobalThreadPoolForTesting(threads);
    const EvalResult parallel = eval.Evaluate(set, cfg).value();
    EXPECT_EQ(parallel.sizes, serial.sizes) << threads;
    EXPECT_EQ(parallel.error_sums, serial.error_sums) << threads;
    EXPECT_EQ(parallel.max_errors, serial.max_errors) << threads;
  }
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(EvaluatorTest, BitsetCacheReusedAcrossCalls) {
  Fixture f = RandomFixture(41, 500, 3, 4);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  SliceSet set;
  set.Add({f.offsets.ColumnOf(0, 1)});
  set.Add({f.offsets.ColumnOf(0, 1), f.offsets.ColumnOf(1, 2)});
  SliceLineConfig cfg;
  cfg.eval_strategy = SliceLineConfig::EvalStrategy::kBitset;
  EvalResult first = eval.Evaluate(set, cfg).value();
  EvalResult second = eval.Evaluate(set, cfg).value();  // cached bitmaps path
  EXPECT_EQ(first.sizes, second.sizes);
  EXPECT_EQ(first.error_sums, second.error_sums);
}

TEST(EvaluatorTest, EmptySliceSet) {
  Fixture f = RandomFixture(31, 50, 2, 3);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  EvalResult r = eval.Evaluate(SliceSet(), SliceLineConfig()).value();
  EXPECT_TRUE(r.sizes.empty());
}

TEST(EvaluatorTest, TotalErrorAccumulates) {
  Fixture f = RandomFixture(33, 100, 2, 3);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  double expect = 0.0;
  for (double e : f.errors) expect += e;
  EXPECT_NEAR(eval.total_error(), expect, 1e-9);
}

}  // namespace
}  // namespace sliceline::core
