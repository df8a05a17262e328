#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sliceline::core {
namespace {

TEST(ParentBoundsTest, AccumulatesMinima) {
  ParentBounds b;
  b.AddParent(100, 50.0, 5.0);
  b.AddParent(80, 60.0, 4.0);
  b.AddParent(120, 40.0, 6.0);
  EXPECT_EQ(b.size_ub, 80);
  EXPECT_DOUBLE_EQ(b.error_ub, 40.0);
  EXPECT_DOUBLE_EQ(b.max_error_ub, 4.0);
  EXPECT_EQ(b.parents, 3);
}

TEST(UpperBoundTest, NoParentsIsMinusInfinity) {
  ScoringContext ctx(100, 10.0, 0.9);
  EXPECT_EQ(UpperBoundScore(ctx, 5, ParentBounds{}),
            ScoringContext::kMinusInfinity);
}

TEST(UpperBoundTest, InfeasibleIntervalIsMinusInfinity) {
  ScoringContext ctx(100, 10.0, 0.9);
  ParentBounds b;
  b.AddParent(4, 3.0, 1.0);  // size_ub = 4 < sigma = 5
  EXPECT_EQ(UpperBoundScore(ctx, 5, b), ScoringContext::kMinusInfinity);
}

TEST(UpperBoundTest, ZeroErrorBoundIsNonPositive) {
  ScoringContext ctx(100, 10.0, 0.9);
  ParentBounds b;
  b.AddParent(50, 0.0, 0.0);
  EXPECT_LE(UpperBoundScore(ctx, 5, b), 0.0);
}

/// Brute-force maximum of the bound function over every integer size in
/// [sigma, size_ub]; the closed-form interesting-points evaluation must
/// dominate (be >=) it and equal it up to the continuous/integer gap.
double BruteForceBound(const ScoringContext& ctx, int64_t sigma,
                       const ParentBounds& b) {
  double best = ScoringContext::kMinusInfinity;
  for (int64_t s = sigma; s <= b.size_ub; ++s) {
    const double se = std::min(b.error_ub, s * b.max_error_ub);
    best = std::max(best, ctx.Score(s, se));
  }
  return best;
}

TEST(UpperBoundTest, MatchesBruteForceOverSizes) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t n = 50 + rng.NextInt(0, 400);
    const double total = rng.NextDouble(1.0, 100.0);
    const double alpha = rng.NextDouble(0.05, 1.0);
    ScoringContext ctx(n, total, alpha);
    const int64_t sigma = 1 + rng.NextInt(0, 20);
    ParentBounds b;
    const int parents = 1 + static_cast<int>(rng.NextUint64(3));
    for (int p = 0; p < parents; ++p) {
      const int64_t size = sigma + rng.NextInt(0, n - sigma);
      const double sm = rng.NextDouble(0.0, 3.0);
      const double se = rng.NextDouble(0.0, sm * size + 1.0);
      b.AddParent(size, se, sm);
    }
    const double closed = UpperBoundScore(ctx, sigma, b);
    const double brute = BruteForceBound(ctx, sigma, b);
    // The closed form optimizes over real-valued s, so it may exceed the
    // integer brute force slightly, but must never be smaller.
    EXPECT_GE(closed + 1e-9, brute)
        << "trial " << trial << " n=" << n << " alpha=" << alpha;
  }
}

TEST(UpperBoundTest, DominatesAllFeasibleChildren) {
  // Any child slice with size <= size_ub, se <= min(error_ub, size * sm_ub)
  // must score at most the bound.
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t n = 100 + rng.NextInt(0, 900);
    ScoringContext ctx(n, rng.NextDouble(5.0, 50.0),
                       rng.NextDouble(0.1, 1.0));
    const int64_t sigma = 2 + rng.NextInt(0, 30);
    ParentBounds b;
    b.AddParent(sigma + rng.NextInt(0, 200), rng.NextDouble(0.0, 40.0),
                rng.NextDouble(0.0, 2.0));
    const double bound = UpperBoundScore(ctx, sigma, b);
    for (int child = 0; child < 50; ++child) {
      if (b.size_ub < sigma) break;
      const int64_t size = sigma + rng.NextInt(0, b.size_ub - sigma);
      const double max_se =
          std::min(b.error_ub, static_cast<double>(size) * b.max_error_ub);
      const double se = rng.NextDouble(0.0, std::max(max_se, 1e-12));
      EXPECT_LE(ctx.Score(size, se), bound + 1e-9)
          << "trial " << trial << " size " << size << " se " << se;
    }
  }
}

TEST(UpperBoundTest, TighterParentsGiveTighterBound) {
  ScoringContext ctx(1000, 100.0, 0.9);
  ParentBounds loose;
  loose.AddParent(500, 80.0, 2.0);
  ParentBounds tight = loose;
  tight.AddParent(300, 40.0, 1.0);
  EXPECT_LE(UpperBoundScore(ctx, 10, tight),
            UpperBoundScore(ctx, 10, loose) + 1e-12);
}

/// UpperBoundClears stops at the first interesting point that clears the
/// threshold; its decision must equal the one read off the full maximum.
TEST(UpperBoundTest, ClearsExactlyWhenTheBoundDoes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int64_t sigma = 10;
  auto parent = [](int64_t size, double error_sum, double max_error) {
    ParentBounds bounds;
    bounds.AddParent(size, error_sum, max_error);
    return bounds;
  };
  const std::vector<ParentBounds> cases = {
      ParentBounds{},                // no parents
      parent(sigma, 40.0, 5.0),      // size_ub at sigma
      parent(sigma - 1, 40.0, 5.0),  // size_ub at sigma - 1: infeasible
      parent(200, 30.0, 5.0),        // knee 6, below sigma
      parent(200, 5000.0, 5.0),      // knee 1000, above size_ub
      parent(200, 60.0, 3.0),        // knee 20, on an integer
      parent(200, 61.0, 3.0),        // knee 20.33, between integers
      parent(200, 0.0, 2.0),         // error_ub == 0
      parent(200, -1.0, 2.0),        // error_ub < 0
      parent(200, 50.0, 0.0),        // max_error_ub == 0
      parent(200, 0.0, 0.0),         // both zero
  };
  const std::vector<ScoringContext> contexts = {
      ScoringContext(1000, 100.0, 0.95), ScoringContext(1000, 100.0, 1.0),
      ScoringContext(300, 5.0, 0.5), ScoringContext(50, 1e-3, 0.05)};
  for (const ScoringContext& ctx : contexts) {
    for (const ParentBounds& bounds : cases) {
      const double ub = UpperBoundScore(ctx, sigma, bounds);
      for (double threshold : {-kInf, 0.0, ub, std::nextafter(ub, -kInf),
                               std::nextafter(ub, kInf)}) {
        EXPECT_EQ(UpperBoundClears(ctx, sigma, bounds, threshold),
                  ub > threshold && ub >= 0.0)
            << "size_ub=" << bounds.size_ub << " error_ub=" << bounds.error_ub
            << " max_error_ub=" << bounds.max_error_ub << " ub=" << ub
            << " threshold=" << threshold;
      }
    }
  }
  // Random bounds, thresholds at and one ulp around each bound.
  Rng rng(47);
  for (int trial = 0; trial < 2000; ++trial) {
    const int64_t n = 20 + rng.NextInt(0, 500);
    const ScoringContext ctx(n, rng.NextDouble(0.5, 50.0),
                             rng.NextDouble(0.01, 1.0));
    const int64_t sig = 1 + rng.NextInt(0, 15);
    ParentBounds bounds;
    for (int p = 1 + static_cast<int>(rng.NextUint64(3)); p > 0; --p) {
      const double sm = rng.NextBool(0.1) ? 0.0 : rng.NextDouble(0.0, 3.0);
      const int64_t size = sig - 1 + rng.NextInt(0, n - sig + 1);
      bounds.AddParent(size, sm * static_cast<double>(size) * rng.NextDouble(),
                       sm);
    }
    const double ub = UpperBoundScore(ctx, sig, bounds);
    for (double threshold :
         {-kInf, 0.0, ub, std::nextafter(ub, -kInf), std::nextafter(ub, kInf),
          -ub}) {
      ASSERT_EQ(UpperBoundClears(ctx, sig, bounds, threshold),
                ub > threshold && ub >= 0.0)
          << "trial " << trial << " ub=" << ub << " threshold=" << threshold;
    }
  }
}

}  // namespace
}  // namespace sliceline::core
