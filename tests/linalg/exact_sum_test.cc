// Exact error sums: every order and every cut of a vector — permutations,
// row tiles, shards, a prefix plus its append, and the masked kernel at
// every ISA — must round to the same double as a big-integer reference sum
// with ties to even (reference_sum.h), on vectors with subnormals, the
// largest double, all zeros, and sums that land exactly halfway.
#include "linalg/exact_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/column_store.h"
#include "linalg/kernels_simd.h"
#include "reference_sum.h"

namespace sliceline::linalg {
namespace {

constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kTiny = std::numeric_limits<double>::denorm_min();

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Named test vectors: random families plus hand-made ties.
std::vector<std::pair<std::string, std::vector<double>>> Vectors() {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  Rng rng(2024);
  for (int v = 0; v < 6; ++v) {
    std::vector<double> uniform(300);
    for (double& e : uniform) e = rng.NextBool(0.3) ? 0.0 : rng.NextDouble();
    out.emplace_back("uniform" + std::to_string(v), uniform);
    // Magnitudes across the whole range, subnormals included.
    std::vector<double> wide(200);
    for (double& e : wide) {
      e = std::ldexp(rng.NextDouble(),
                     static_cast<int>(rng.NextInt(-1074, 1020)));
    }
    wide[3] = kTiny;
    wide[4] = 3 * kTiny;
    out.emplace_back("wide" + std::to_string(v), wide);
  }
  out.emplace_back("zeros", std::vector<double>(70, 0.0));
  out.emplace_back("empty", std::vector<double>());
  out.emplace_back("subnormals", std::vector<double>{kTiny, 5 * kTiny,
                                                     std::ldexp(1.0, -1030),
                                                     0.0, kTiny});
  out.emplace_back("max", std::vector<double>{kMax, 0.0});
  out.emplace_back("max_overflows", std::vector<double>{kMax, kMax, 1.0});
  // DBL_MAX plus half its ulp lands halfway to 2^1024: ties to even
  // rounds up, past the largest double.
  out.emplace_back("max_tie", std::vector<double>{kMax, std::ldexp(1.0, 969),
                                                  std::ldexp(1.0, 969)});
  // 1 + 2^-53 is halfway between 1 and 1 + 2^-52: even is 1.
  out.emplace_back("tie_down", std::vector<double>{1.0, std::ldexp(1.0, -53)});
  // (1 + 2^-52) + 2^-53 is halfway again; even is 1 + 2^-51.
  out.emplace_back("tie_up", std::vector<double>{1.0 + std::ldexp(1.0, -52),
                                                 std::ldexp(1.0, -53)});
  // A tie broken by a far smaller addend.
  out.emplace_back("tie_sticky",
                   std::vector<double>{std::ldexp(1.0, -53), 1.0,
                                       std::ldexp(1.0, -400)});
  return out;
}

double Reference(const std::vector<double>& v) {
  testing::ReferenceSum sum;
  for (double e : v) sum.Add(e);
  return sum.Round();
}

TEST(ReferenceSumTest, RoundsTiesToEven) {
  EXPECT_EQ(Reference({1.0, std::ldexp(1.0, -53)}), 1.0);
  EXPECT_EQ(Reference({1.0 + std::ldexp(1.0, -52), std::ldexp(1.0, -53)}),
            1.0 + std::ldexp(1.0, -51));
  EXPECT_EQ(Reference({kMax, kMax}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(Reference({kTiny, kTiny}), 2 * kTiny);
  EXPECT_EQ(Reference({0.1, 0.2}), 0.1 + 0.2);  // one add rounds once
}

TEST(ExactSumTest, EveryPermutationRoundsLikeTheReference) {
  Rng rng(7);
  for (const auto& [name, values] : Vectors()) {
    const double want = Reference(values);
    std::vector<double> order = values;
    for (int round = 0; round < 8; ++round) {
      rng.Shuffle(order);
      ExactSum sum;
      for (double e : order) sum.Add(e);
      EXPECT_EQ(Bits(sum.ToDouble()), Bits(want)) << name << " round " << round;
    }
  }
}

TEST(ExactSumTest, EveryPartitionAddsUpToTheSameSum) {
  Rng rng(11);
  for (const auto& [name, values] : Vectors()) {
    const double want = Reference(values);
    const int64_t n = static_cast<int64_t>(values.size());
    for (int parts : {1, 2, 3, 7, 64}) {
      // Random cut points, parts summed on their own and then added in a
      // random order (tiles, shards).
      std::vector<int64_t> cuts = {0, n};
      for (int c = 1; c < parts; ++c) cuts.push_back(rng.NextInt(0, n));
      std::sort(cuts.begin(), cuts.end());
      std::vector<ExactSum> partials;
      for (size_t c = 0; c + 1 < cuts.size(); ++c) {
        ExactSum part;
        for (int64_t i = cuts[c]; i < cuts[c + 1]; ++i) {
          part.Add(values[static_cast<size_t>(i)]);
        }
        partials.push_back(part);
      }
      rng.Shuffle(partials);
      ExactSum total;
      for (const ExactSum& part : partials) total.Add(part);
      EXPECT_EQ(Bits(total.ToDouble()), Bits(want))
          << name << " in " << parts << " parts";
      // A partial shipped as (anchor, digits) comes back equal.
      const StatusOr<ExactSum> copy =
          ExactSum::FromDigits(total.anchor(), total.digits());
      ASSERT_TRUE(copy.ok()) << name;
      EXPECT_EQ(copy.value(), total) << name;
    }
    // A prefix, then the append.
    for (int64_t prefix : {int64_t{0}, n / 3, n}) {
      ExactSum sum;
      for (int64_t i = 0; i < prefix; ++i) sum.Add(values[i]);
      ExactSum appended;
      for (int64_t i = prefix; i < n; ++i) appended.Add(values[i]);
      sum.Add(appended);
      EXPECT_EQ(Bits(sum.ToDouble()), Bits(want)) << name << " prefix " << prefix;
    }
  }
}

TEST(ExactSumTest, MaskedKernelRoundsLikeTheReferenceAtEveryIsa) {
  Rng rng(13);
  for (const auto& [name, values] : Vectors()) {
    const int64_t words = std::max<int64_t>(1, (values.size() + 63) / 64);
    std::vector<double> errors(static_cast<size_t>(words) * 64, 0.0);
    std::copy(values.begin(), values.end(), errors.begin());
    data::ErrorGrid grid;
    for (double e : values) grid.Add(e);
    const SumLayout layout = grid.layout();
    // Every row, and a random half of them.
    std::vector<uint64_t> all(static_cast<size_t>(words), ~uint64_t{0});
    std::vector<uint64_t> half(static_cast<size_t>(words), 0);
    std::vector<double> half_values;
    for (size_t r = 0; r < values.size(); ++r) {
      if (rng.NextBool(0.5)) {
        half[r / 64] |= uint64_t{1} << (r % 64);
        half_values.push_back(values[r]);
      }
    }
    for (SimdIsa isa : AvailableIsas()) {
      const SimdKernels& kernels = KernelsFor(isa);
      for (const auto& [mask, want] :
           {std::make_pair(&all, Reference(values)),
            std::make_pair(&half, Reference(half_values))}) {
        // One call, then the same rows cut into two calls.
        std::vector<uint64_t> one(static_cast<size_t>(layout.lanes), 0);
        std::vector<uint64_t> two = one;
        uint64_t max_one = 0;
        uint64_t max_two = 0;
        kernels.masked_sum(mask->data(), words, errors.data(), layout,
                           one.data(), &max_one);
        const int64_t cut = words / 2;
        kernels.masked_sum(mask->data(), cut, errors.data(), layout,
                           two.data(), &max_two);
        kernels.masked_sum(mask->data() + cut, words - cut,
                           errors.data() + cut * 64, layout, two.data(),
                           &max_two);
        const std::string what = name + " at " + IsaName(isa) +
                                 (mask == &all ? " all rows" : " half");
        EXPECT_EQ(Bits(RoundLanes(one.data(), layout)), Bits(want)) << what;
        EXPECT_EQ(Bits(RoundLanes(two.data(), layout)), Bits(want)) << what;
        EXPECT_EQ(max_one, max_two) << what;
        ExactSum via;
        via.AddLanes(one.data(), layout);
        EXPECT_EQ(Bits(via.ToDouble()), Bits(want)) << what;
      }
    }
  }
}

TEST(ExactSumTest, EitherZeroAddsNothing) {
  // -0.0 passes every error check (it is not below 0) but has the sign bit
  // set, so it must not be split like a positive double.
  ExactSum sum;
  sum.Add(-0.0);
  sum.Add(0.0);
  EXPECT_EQ(sum, ExactSum());
  sum.Add(1.5);
  sum.Add(-0.0);
  EXPECT_EQ(sum.ToDouble(), 1.5);
}

TEST(ExactSumTest, FromDigitsRejectsMalformedSums) {
  EXPECT_FALSE(ExactSum::FromDigits(16, {1}).ok());  // off the 32-bit grid
  EXPECT_FALSE(ExactSum::FromDigits(ExactSum::kMinAnchor - 32, {1}).ok());
  EXPECT_FALSE(ExactSum::FromDigits(ExactSum::kMaxAnchor + 32, {1}).ok());
  EXPECT_FALSE(
      ExactSum::FromDigits(0, std::vector<uint32_t>(ExactSum::kMaxDigits + 1, 1))
          .ok());
  const StatusOr<ExactSum> zero = ExactSum::FromDigits(-64, {0, 0});
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value(), ExactSum());  // canonical: zero is empty
  const StatusOr<ExactSum> three = ExactSum::FromDigits(-32, {0, 3});
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->ToDouble(), 3.0);
  EXPECT_EQ(three->anchor(), 0);
}

}  // namespace
}  // namespace sliceline::linalg
