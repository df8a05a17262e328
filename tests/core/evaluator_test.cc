#include "core/evaluator.h"

#include <algorithm>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/kernels_simd.h"
#include "reference_sum.h"

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

/// True when row `i` of the fixture satisfies every predicate column.
bool RowMatches(const Fixture& f, const int64_t* cols, int64_t len,
                int64_t i) {
  for (int64_t k = 0; k < len; ++k) {
    if (f.x0.At(i, f.offsets.FeatureOfColumn(cols[k])) !=
        f.offsets.CodeOfColumn(cols[k])) {
      return false;
    }
  }
  return true;
}

/// A row scan of each slice's matching rows into a big-integer reference
/// sum, rounded once.
EvalResult RowScanReference(const Fixture& f, const SliceSet& set) {
  EvalResult out;
  for (int64_t s = 0; s < set.size(); ++s) {
    double ss = 0.0, sm = 0.0;
    testing::ReferenceSum se;
    for (int64_t i = 0; i < f.x0.rows(); ++i) {
      if (!RowMatches(f, set.Columns(s), set.Length(s), i)) continue;
      const double e = f.errors[static_cast<size_t>(i)];
      ss += 1.0;
      se.Add(e);
      if (e > sm) sm = e;
    }
    out.sizes.push_back(ss);
    out.error_sums.push_back(se.Round());
    out.max_errors.push_back(sm);
  }
  return out;
}

/// Random slices of 1-3 predicates on distinct features.
SliceSet RandomSlices(const Fixture& f, uint64_t seed, int count) {
  Rng rng(seed);
  const int m = f.offsets.num_features();
  SliceSet set;
  for (int s = 0; s < count; ++s) {
    std::vector<int> feats(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) feats[static_cast<size_t>(j)] = j;
    rng.Shuffle(feats);
    const int len = 1 + static_cast<int>(rng.NextUint64(std::min(m, 3)));
    std::vector<int64_t> cols;
    for (int k = 0; k < len; ++k) {
      const int feat = feats[static_cast<size_t>(k)];
      cols.push_back(f.offsets.ColumnOf(
          feat,
          static_cast<int32_t>(rng.NextUint64(f.offsets.fdom[feat])) + 1));
    }
    std::sort(cols.begin(), cols.end());
    set.Add(cols);
  }
  return set;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
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
  EXPECT_EQ(b.error_sums, c.error_sums);
  EXPECT_EQ(b.max_errors, c.max_errors);
}

TEST(EvaluatorTest, ScanBlockIsBitIdenticalAcrossThreadCounts) {
  // Several row tiles, so partial sums are merged in completion order;
  // they are exact, so the order cannot show.
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

TEST(EvaluatorTest, ScanBlockEqualsRowScanReference) {
  // Three full row tiles and a ragged fourth; arbitrary float errors,
  // whose float chains round differently per tile. Both strategies must
  // round each exact sum once, to the big-integer reference's double.
  Fixture f = RandomFixture(47, 3 * 4096 + 1517, 4, 3);
  const SliceSet set = RandomSlices(f, 53, 60);
  const EvalResult want = RowScanReference(f, set);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  SliceLineConfig cfg;
  cfg.parallel = true;
  for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
    linalg::ForceIsa(isa);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ResizeGlobalThreadPoolForTesting(threads);
      for (int b : {0, 1, 5, 1000}) {
        // b == 0 stands for kBitset.
        cfg.eval_strategy = b == 0
                                ? SliceLineConfig::EvalStrategy::kBitset
                                : SliceLineConfig::EvalStrategy::kScanBlock;
        cfg.eval_block_size = std::max(b, 1);
        const EvalResult got = eval.Evaluate(set, cfg).value();
        const std::string what = std::string(linalg::IsaName(isa)) +
                                 " threads=" + std::to_string(threads) +
                                 " b=" + std::to_string(b);
        EXPECT_TRUE(SameBits(got.sizes, want.sizes)) << what;
        EXPECT_TRUE(SameBits(got.error_sums, want.error_sums)) << what;
        EXPECT_TRUE(SameBits(got.max_errors, want.max_errors)) << what;
      }
    }
  }
  linalg::ClearForcedIsa();
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(EvaluatorTest, ContinueFromAnyPrefixEqualsOneBitsetEvaluate) {
  Fixture f = RandomFixture(59, 5000, 4, 3);
  const SliceSet set = RandomSlices(f, 61, 50);
  SliceEvaluator eval(f.x0, f.offsets, f.errors);
  SliceLineConfig cfg;
  cfg.eval_strategy = SliceLineConfig::EvalStrategy::kBitset;
  const EvalResult want = eval.Evaluate(set, cfg).value();
  // Continue runs the config's schedule; kScanBlock tiles start at the
  // prefix's word.
  cfg.eval_strategy = SliceLineConfig::EvalStrategy::kScanBlock;
  for (int64_t prefix : {int64_t{0}, int64_t{64}, int64_t{1000},
                         int64_t{4097}, int64_t{4999}, int64_t{5000}}) {
    // Statistics over rows [0, prefix), from an evaluator of that prefix.
    Fixture head;
    head.x0 = data::IntMatrix(prefix, f.x0.cols());
    for (int64_t i = 0; i < prefix; ++i) {
      std::copy(f.x0.row(i), f.x0.row(i) + f.x0.cols(), head.x0.row(i));
    }
    head.errors.assign(f.errors.begin(), f.errors.begin() + prefix);
    ExactEvalResult exact(static_cast<size_t>(set.size()));
    if (prefix > 0) {
      SliceEvaluator head_eval(head.x0, f.offsets, head.errors);
      ASSERT_TRUE(head_eval.Continue(set, 0, cfg, &exact).ok());
    }
    ASSERT_TRUE(eval.Continue(set, prefix, cfg, &exact).ok());
    const EvalResult stats = exact.Round();
    EXPECT_TRUE(SameBits(stats.sizes, want.sizes)) << prefix;
    EXPECT_TRUE(SameBits(stats.error_sums, want.error_sums)) << prefix;
    EXPECT_TRUE(SameBits(stats.max_errors, want.max_errors)) << prefix;
  }
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
