#include "core/sliceline.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exhaustive.h"
#include "core/sliceline_bestfirst.h"
#include "core/sliceline_la.h"
#include "data/generators/generators.h"
#include "dist/coordinator.h"
#include "reference_sum.h"
#include "stream/stream_finder.h"

namespace sliceline::core {
namespace {

using testing::ReferenceSum;

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
  for (auto& e : input.errors) {
    e = rng.NextBool(0.35) ? rng.NextDouble() : 0.0;
  }
  return input;
}

void ExpectSameTopK(const SliceLineResult& a, const SliceLineResult& b,
                    const char* label) {
  ASSERT_EQ(a.top_k.size(), b.top_k.size()) << label;
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    EXPECT_EQ(a.top_k[i].stats.score, b.top_k[i].stats.score)
        << label << " rank " << i;
    EXPECT_EQ(a.top_k[i].stats.size, b.top_k[i].stats.size)
        << label << " rank " << i;
  }
}

/// The paper's central exactness claim: SliceLine's top-K equals the
/// brute-force enumeration's top-K (by score) on every input.
class ExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactnessTest, MatchesExhaustiveOracle) {
  RandomInput input = MakeRandom(GetParam(), 300, 6, 4);
  SliceLineConfig config;
  config.k = 6;
  config.alpha = 0.9;
  config.min_support = 12;
  auto fast = RunSliceLine(input.x0, input.errors, config);
  auto oracle = RunExhaustive(input.x0, input.errors, config);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameTopK(*fast, *oracle, "vs-oracle");
}

TEST_P(ExactnessTest, MatchesOracleAcrossAlpha) {
  RandomInput input = MakeRandom(GetParam() + 1000, 250, 5, 3);
  for (double alpha : {0.3, 0.5, 0.95, 1.0}) {
    SliceLineConfig config;
    config.k = 4;
    config.alpha = alpha;
    config.min_support = 8;
    auto fast = RunSliceLine(input.x0, input.errors, config);
    auto oracle = RunExhaustive(input.x0, input.errors, config);
    ASSERT_TRUE(fast.ok() && oracle.ok());
    ExpectSameTopK(*fast, *oracle, "alpha-sweep");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactnessTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(SliceLineTest, FindsPlantedSliceOnSalaries) {
  data::DatasetOptions opts;
  opts.rows = 800;
  data::EncodedDataset ds = data::MakeSalaries(opts);
  SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  auto result = RunSliceLine(ds, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->top_k.empty());
  // The top slice must involve one of the planted subgroups' features.
  bool found = false;
  for (const Slice& slice : result->top_k) {
    for (const auto& [feature, code] : slice.predicates) {
      for (const data::PlantedSlice& planted : ds.planted) {
        for (const auto& p : planted.predicates) {
          found |= p.first == feature && p.second == code;
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(SliceLineTest, MaxLevelCapsEnumeration) {
  RandomInput input = MakeRandom(77, 400, 6, 3);
  SliceLineConfig config;
  config.k = 5;
  config.min_support = 8;
  config.max_level = 2;
  auto result = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->levels.size(), 2u);
  for (const Slice& slice : result->top_k) {
    EXPECT_LE(slice.level(), 2);
  }
}

TEST(SliceLineTest, TopKSatisfiesConstraints) {
  RandomInput input = MakeRandom(78, 500, 5, 4);
  SliceLineConfig config;
  config.k = 10;
  config.min_support = 20;
  auto result = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  double prev = 1e300;
  for (const Slice& slice : result->top_k) {
    EXPECT_GT(slice.stats.score, 0.0);
    EXPECT_GE(slice.stats.size, 20);
    EXPECT_LE(slice.stats.score, prev);  // descending order
    prev = slice.stats.score;
    // At most one predicate per feature.
    for (size_t i = 1; i < slice.predicates.size(); ++i) {
      EXPECT_LT(slice.predicates[i - 1].first, slice.predicates[i].first);
    }
  }
}

TEST(SliceLineTest, ReportedStatsAreAccurate) {
  RandomInput input = MakeRandom(79, 300, 4, 3);
  SliceLineConfig config;
  config.k = 5;
  config.min_support = 10;
  auto result = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  for (const Slice& slice : result->top_k) {
    int64_t size = 0;
    ReferenceSum err;
    double mx = 0.0;
    for (int64_t i = 0; i < input.x0.rows(); ++i) {
      if (slice.Matches(input.x0, i)) {
        ++size;
        err.Add(input.errors[i]);
        mx = std::max(mx, input.errors[i]);
      }
    }
    EXPECT_EQ(slice.stats.size, size);
    EXPECT_EQ(slice.stats.error_sum, err.Round());
    EXPECT_DOUBLE_EQ(slice.stats.max_error, mx);
  }
}

TEST(SliceLineTest, PerfectModelReturnsNothing) {
  RandomInput input = MakeRandom(80, 200, 3, 3);
  std::fill(input.errors.begin(), input.errors.end(), 0.0);
  auto result = RunSliceLine(input.x0, input.errors, SliceLineConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->top_k.empty());
}

TEST(SliceLineTest, UniformErrorsScoreNothing) {
  // Every slice has exactly the average error; no slice can satisfy
  // sc > 0 because both terms are <= 0.
  RandomInput input = MakeRandom(81, 300, 4, 3);
  std::fill(input.errors.begin(), input.errors.end(), 0.5);
  SliceLineConfig config;
  config.min_support = 5;
  auto result = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->top_k.empty());
}

TEST(SliceLineTest, ValidatesInputs) {
  RandomInput input = MakeRandom(82, 100, 3, 3);
  SliceLineConfig config;
  config.alpha = 0.0;
  EXPECT_FALSE(RunSliceLine(input.x0, input.errors, config).ok());
  config.alpha = 1.5;
  EXPECT_FALSE(RunSliceLine(input.x0, input.errors, config).ok());
  config = SliceLineConfig();
  config.k = 0;
  EXPECT_FALSE(RunSliceLine(input.x0, input.errors, config).ok());
  config = SliceLineConfig();
  std::vector<double> short_errors(50, 0.1);
  EXPECT_FALSE(RunSliceLine(input.x0, short_errors, config).ok());
  std::vector<double> negative(100, -1.0);
  EXPECT_FALSE(RunSliceLine(input.x0, negative, config).ok());
  EXPECT_FALSE(
      RunSliceLine(data::IntMatrix(), std::vector<double>{}, config).ok());
}

TEST(SliceLineTest, EveryEngineRejectsNonFiniteOrNegativeErrors) {
  const RandomInput input = MakeRandom(84, 200, 3, 3);
  const SliceLineConfig config;
  dist::DistOptions dist_options;
  dist_options.local_workers = 2;
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    std::vector<double> errors = input.errors;
    errors[17] = bad;
    const std::string what = "error " + std::to_string(bad);
    EXPECT_EQ(RunSliceLine(input.x0, errors, config).status().code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(RunSliceLineBestFirst(input.x0, errors, config).status().code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(RunSliceLineLA(input.x0, errors, config).status().code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(dist::RunSliceLineDistributed(input.x0, errors, config,
                                            dist_options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(
        stream::StreamingSliceFinder::Create(input.x0, errors).status().code(),
        StatusCode::kInvalidArgument)
        << what;
  }
}

TEST(SliceLineTest, EveryEngineRejectsCodesBelowOne) {
  const RandomInput input = MakeRandom(85, 200, 2, 3);
  const SliceLineConfig config;
  dist::DistOptions dist_options;
  dist_options.local_workers = 2;
  for (int32_t bad : {0, -3}) {
    data::IntMatrix x0 = input.x0;
    x0.At(117, 1) = bad;
    // Every engine names the same cell.
    const Status want = data::CodeBelowOne(117, 1, bad);
    const std::string what = "code " + std::to_string(bad);
    EXPECT_EQ(RunSliceLine(x0, input.errors, config).status(), want) << what;
    EXPECT_EQ(RunSliceLineBestFirst(x0, input.errors, config).status(), want)
        << what;
    EXPECT_EQ(RunSliceLineLA(x0, input.errors, config).status(), want)
        << what;
    EXPECT_EQ(RunExhaustive(x0, input.errors, config).status(), want) << what;
    EXPECT_EQ(
        dist::RunSliceLineDistributed(x0, input.errors, config, dist_options)
            .status(),
        want)
        << what;
    EXPECT_EQ(stream::StreamingSliceFinder::Create(x0, input.errors)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << what;
  }
}

TEST(SliceLineTest, EveryEngineRunsTheSameInputCheck) {
  // One table of bad inputs through all five engines: each must return the
  // same InvalidArgument, naming the bad row where there is one.
  const RandomInput input = MakeRandom(86, 8, 2, 2);
  dist::DistOptions dist_options;
  dist_options.local_workers = 2;
  SliceLineConfig alpha_zero;
  alpha_zero.alpha = 0.0;
  SliceLineConfig k_zero;
  k_zero.k = 0;
  SliceLineConfig negative_sigma;
  negative_sigma.min_support = -1;
  std::vector<double> negative_error = input.errors;
  negative_error[5] = -0.25;
  struct BadInput {
    const char* what;
    SliceLineConfig config;
    std::vector<double> errors;
    const char* message;
  };
  const std::vector<BadInput> table = {
      {"alpha = 0", alpha_zero, input.errors, "alpha must be in (0, 1]"},
      {"k = 0", k_zero, input.errors, "k must be >= 1"},
      {"min_support = -1", negative_sigma, input.errors,
       "min_support must be >= 0"},
      {"negative error", SliceLineConfig(), negative_error,
       "errors must be non-negative and finite (row 5)"},
  };
  for (const BadInput& bad : table) {
    const Status want = Status::InvalidArgument(bad.message);
    EXPECT_EQ(RunSliceLine(input.x0, bad.errors, bad.config).status(), want)
        << bad.what;
    EXPECT_EQ(RunSliceLineLA(input.x0, bad.errors, bad.config).status(), want)
        << bad.what;
    EXPECT_EQ(
        RunSliceLineBestFirst(input.x0, bad.errors, bad.config).status(), want)
        << bad.what;
    EXPECT_EQ(RunExhaustive(input.x0, bad.errors, bad.config).status(), want)
        << bad.what;
    EXPECT_EQ(dist::RunSliceLineDistributed(input.x0, bad.errors, bad.config,
                                            dist_options)
                  .status(),
              want)
        << bad.what;
  }
}

TEST(SliceLineTest, DatasetOverloadRequiresErrors) {
  data::EncodedDataset ds;
  ds.x0 = data::IntMatrix(10, 2, 1);
  EXPECT_FALSE(RunSliceLine(ds, SliceLineConfig()).ok());
}

TEST(SliceLineTest, LevelStatsAreConsistent) {
  RandomInput input = MakeRandom(83, 400, 5, 4);
  SliceLineConfig config;
  config.min_support = 10;
  auto result = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->levels.empty());
  EXPECT_EQ(result->levels[0].level, 1);
  int64_t total = 0;
  for (const LevelStats& level : result->levels) {
    EXPECT_GE(level.candidates, level.valid);
    EXPECT_GE(level.valid, 0);
    total += level.candidates;
  }
  EXPECT_EQ(total, result->total_evaluated);
}

TEST(SliceLineTest, DefaultSigmaApplied) {
  RandomInput input = MakeRandom(84, 5000, 4, 3);
  auto result = RunSliceLine(input.x0, input.errors, SliceLineConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->min_support, 50);  // max(32, ceil(5000/100))
}

TEST(SliceLineTest, KOneReturnsSingleBest) {
  RandomInput input = MakeRandom(85, 300, 5, 4);
  SliceLineConfig config;
  config.k = 1;
  config.min_support = 10;
  auto one = RunSliceLine(input.x0, input.errors, config);
  config.k = 8;
  auto many = RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(one.ok() && many.ok());
  if (!many->top_k.empty()) {
    ASSERT_EQ(one->top_k.size(), 1u);
    EXPECT_EQ(one->top_k[0].stats.score, many->top_k[0].stats.score);
  }
}

}  // namespace
}  // namespace sliceline::core
