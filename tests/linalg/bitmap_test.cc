// Tests of the bit-packed row-set primitives backing the SIMD evaluation
// path: pack/unpack round-trips, popcount against a dense reference, and
// the word-boundary row counts the padding logic must get right (63/64/65).
#include "linalg/bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace sliceline::linalg {
namespace {

TEST(BitmapWordsTest, PadsToVectorMultiple) {
  EXPECT_EQ(BitmapWords(0), 0);
  EXPECT_EQ(BitmapWords(1), kBitmapWordPad);
  EXPECT_EQ(BitmapWords(63), kBitmapWordPad);
  EXPECT_EQ(BitmapWords(64), kBitmapWordPad);
  EXPECT_EQ(BitmapWords(65), kBitmapWordPad);
  EXPECT_EQ(BitmapWords(64 * kBitmapWordPad), kBitmapWordPad);
  EXPECT_EQ(BitmapWords(64 * kBitmapWordPad + 1), 2 * kBitmapWordPad);
}

TEST(BitmapTest, SetTestClear) {
  Bitmap b(130);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(65));
  EXPECT_EQ(b.PopCount(), 4);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.PopCount(), 3);
}

TEST(BitmapTest, RoundTripAtWordBoundaries) {
  // n = 63 (last bit inside a word), 64 (exactly one word), 65 (one bit
  // spilling into the next word) are the shapes a packing off-by-one breaks.
  for (int64_t n : {int64_t{1}, int64_t{63}, int64_t{64}, int64_t{65},
                    int64_t{127}, int64_t{128}, int64_t{129}}) {
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < n; r += 3) rows.push_back(r);
    // Always include the last row: it lives at the word boundary under test.
    if (rows.empty() || rows.back() != n - 1) rows.push_back(n - 1);
    Bitmap b = Bitmap::FromRows(n, rows);
    EXPECT_EQ(b.rows(), n);
    EXPECT_EQ(b.words(), BitmapWords(n));
    EXPECT_EQ(b.PopCount(), static_cast<int64_t>(rows.size())) << "n=" << n;
    EXPECT_EQ(b.SetRows(), rows) << "n=" << n;
  }
}

TEST(BitmapTest, RandomRoundTripMatchesDenseReference) {
  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t n = rng.NextInt(1, 700);
    std::vector<bool> dense(static_cast<size_t>(n), false);
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < n; ++r) {
      if (rng.NextBool(0.4)) {
        dense[static_cast<size_t>(r)] = true;
        rows.push_back(r);
      }
    }
    Bitmap b = Bitmap::FromRows(n, rows);
    int64_t dense_count = 0;
    for (int64_t r = 0; r < n; ++r) {
      EXPECT_EQ(b.Test(r), dense[static_cast<size_t>(r)]);
      dense_count += dense[static_cast<size_t>(r)] ? 1 : 0;
    }
    EXPECT_EQ(b.PopCount(), dense_count);
    EXPECT_EQ(b.SetRows(), rows);
  }
}

TEST(BitmapTest, PaddingWordsStayZero) {
  // Rows 65: two live words, six padding words. Every padding word must be
  // zero so vectorized popcounts over the padded range stay exact.
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < 65; ++r) rows.push_back(r);
  Bitmap b = Bitmap::FromRows(65, rows);
  ASSERT_EQ(b.words(), kBitmapWordPad);
  EXPECT_EQ(b.data()[0], ~uint64_t{0});
  EXPECT_EQ(b.data()[1], uint64_t{1});
  for (int64_t w = 2; w < b.words(); ++w) {
    EXPECT_EQ(b.data()[w], uint64_t{0}) << "padding word " << w;
  }
}

TEST(BitmapTest, EqualityComparesContents) {
  Bitmap a = Bitmap::FromRows(100, {1, 50, 99});
  Bitmap b = Bitmap::FromRows(100, {1, 50, 99});
  Bitmap c = Bitmap::FromRows(100, {1, 50});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace sliceline::linalg
