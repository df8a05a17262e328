// Differential kernel-test rig: every SIMD kernel, at every ISA level this
// host can execute, over seeded typical and pathological bitmap shapes, must
// be BIT-identical to the always-compiled scalar reference — integer counts
// equal, output words memcmp-equal, and exact masked sums equal lane for
// lane — and every error sum must round to the double of a test-local
// big-integer reference sum (reference_sum.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/bitmap.h"
#include "data/column_store.h"
#include "linalg/kernels_simd.h"
#include "reference_sum.h"

namespace sliceline::linalg {
namespace {

// Bit-exact double comparison: NaN-safe and distinguishes -0.0 from +0.0,
// which EXPECT_DOUBLE_EQ does not.
void ExpectBitEqual(double expected, double actual, const std::string& what) {
  uint64_t eb = 0;
  uint64_t ab = 0;
  std::memcpy(&eb, &expected, sizeof(eb));
  std::memcpy(&ab, &actual, sizeof(ab));
  EXPECT_EQ(eb, ab) << what << ": expected " << expected << " got " << actual;
}

// One seeded input shape: a row count plus per-column fill probabilities.
// Shapes deliberately include every packing pathology: a single row, tails
// not filling a word (63/65/97), exact word multiples, all-zero columns,
// full columns, and a row space wide enough to need many words.
struct Shape {
  const char* name;
  int64_t rows;
  std::vector<double> densities;  // one bitmap per entry; <0 = all rows set
};

std::vector<Shape> TestShapes() {
  return {
      {"single_row", 1, {0.0, 1.0, -1.0}},
      {"tail_63", 63, {0.5, 0.0, -1.0, 0.9}},
      {"word_64", 64, {0.5, 0.1, -1.0}},
      {"tail_65", 65, {0.5, 0.0, 1.0, -1.0}},
      {"tail_97", 97, {0.3, 0.7, 0.0}},
      {"two_words_128", 128, {0.5, 0.05}},
      {"wide_sparse", 5000, {0.01, 0.02, 0.5, 0.0, -1.0}},
      {"wide_dense", 4099, {0.9, 0.8, 0.95}},
  };
}

// Builds the shape's bitmaps deterministically from a fixed seed.
std::vector<Bitmap> BuildBitmaps(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bitmap> out;
  for (double density : shape.densities) {
    Bitmap b(shape.rows);
    for (int64_t r = 0; r < shape.rows; ++r) {
      if (density < 0 || rng.NextBool(density)) b.Set(r);
    }
    out.push_back(std::move(b));
  }
  return out;
}

// Error vector covering the padded word range (masked_sum contract: errors
// cover [0, words*64), read only where bits are set). Arbitrary doubles, so
// any sum that rounds before the end surfaces.
std::vector<double> BuildErrors(int64_t words, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> errors(static_cast<size_t>(words) * 64);
  for (double& e : errors) e = rng.NextDouble() * 3.0;
  return errors;
}

SumLayout LayoutOf(const std::vector<double>& errors) {
  data::ErrorGrid grid;
  for (double e : errors) grid.Add(e);
  return grid.layout();
}

class SimdDifferentialTest : public ::testing::TestWithParam<SimdIsa> {
 protected:
  static bool IsAvailable(SimdIsa isa) {
    for (SimdIsa available : AvailableIsas()) {
      if (available == isa) return true;
    }
    return false;
  }

  void SetUp() override {
    if (!IsAvailable(GetParam())) {
      GTEST_SKIP() << "ISA " << IsaName(GetParam())
                   << " not executable on this host";
    }
  }
};

TEST_P(SimdDifferentialTest, KernelTableReportsItsIsa) {
  EXPECT_EQ(KernelsFor(GetParam()).isa, GetParam());
}

TEST_P(SimdDifferentialTest, FusedAndPopcountMatchesScalar) {
  const SimdKernels& simd = KernelsFor(GetParam());
  const SimdKernels& scalar = KernelsFor(SimdIsa::kScalar);
  uint64_t seed = 11;
  for (const Shape& shape : TestShapes()) {
    const std::vector<Bitmap> bitmaps = BuildBitmaps(shape, seed++);
    const int64_t full = bitmaps.front().words();
    for (size_t xi = 0; xi < bitmaps.size(); ++xi) {
      const uint64_t* x = bitmaps[xi].data();
      // Mask counts 1-5, 8 and 9 split into every tail of the groups of
      // four: 1, 2, 3, 4, 4+1, 4+4 and 4+4+1. The masks cycle through the
      // shape's bitmaps starting at x itself, so x is always its own first
      // mask (the loop's self-count: x & x = x) and later ones differ.
      for (int32_t count : {1, 2, 3, 4, 5, 8, 9}) {
        std::vector<const uint64_t*> masks;
        for (int32_t j = 0; j < count; ++j) {
          masks.push_back(bitmaps[(xi + j) % bitmaps.size()].data());
        }
        // Unpadded word counts exercise the kernels' tail loops (the
        // evaluator always passes padded buffers, tests and fuzzers may not).
        for (int64_t words : {int64_t{1}, full - 1, full}) {
          if (words < 1) continue;
          std::vector<int64_t> got(static_cast<size_t>(count), -1);
          std::vector<int64_t> want(static_cast<size_t>(count), -2);
          simd.fused_and_popcount(x, masks.data(), count, words, got.data());
          scalar.fused_and_popcount(x, masks.data(), count, words,
                                    want.data());
          EXPECT_EQ(got, want) << shape.name << " x=" << xi
                               << " count=" << count << " words=" << words;
          // The self-count is the column's rows over those words.
          int64_t ones = 0;
          for (int64_t w = 0; w < words; ++w) ones += std::popcount(x[w]);
          EXPECT_EQ(want[0], ones) << shape.name << " x=" << xi
                                   << " words=" << words;
        }
      }
    }
  }
}

TEST_P(SimdDifferentialTest, IntersectColumnsMatchesScalar) {
  const SimdKernels& simd = KernelsFor(GetParam());
  const SimdKernels& scalar = KernelsFor(SimdIsa::kScalar);
  uint64_t seed = 53;
  for (const Shape& shape : TestShapes()) {
    std::vector<Bitmap> bitmaps = BuildBitmaps(shape, seed++);
    const int64_t words = bitmaps.front().words();
    std::vector<const uint64_t*> cols;
    for (const Bitmap& b : bitmaps) cols.push_back(b.data());
    // Every prefix length, including len == 1 (copy) and the widest
    // available intersection.
    for (int32_t len = 1; len <= static_cast<int32_t>(cols.size()); ++len) {
      std::vector<uint64_t> got(static_cast<size_t>(words), ~uint64_t{0});
      std::vector<uint64_t> want(static_cast<size_t>(words), 0);
      const int64_t got_count =
          simd.intersect_columns(cols.data(), len, got.data(), words);
      const int64_t want_count =
          scalar.intersect_columns(cols.data(), len, want.data(), words);
      EXPECT_EQ(got_count, want_count) << shape.name << " len=" << len;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(uint64_t)),
                0)
          << shape.name << " len=" << len;
    }
  }
}

TEST_P(SimdDifferentialTest, MaskedStatsMatchesScalarBitExact) {
  const SimdKernels& simd = KernelsFor(GetParam());
  const SimdKernels& scalar = KernelsFor(SimdIsa::kScalar);
  uint64_t seed = 71;
  for (const Shape& shape : TestShapes()) {
    std::vector<Bitmap> bitmaps = BuildBitmaps(shape, seed++);
    const int64_t words = bitmaps.front().words();
    const std::vector<double> errors = BuildErrors(words, seed * 31);
    const SumLayout layout = LayoutOf(errors);
    for (size_t i = 0; i < bitmaps.size(); ++i) {
      std::vector<uint64_t> got(static_cast<size_t>(layout.lanes), 0);
      std::vector<uint64_t> want = got;
      uint64_t got_max = 0;
      uint64_t want_max = 0;
      simd.masked_sum(bitmaps[i].data(), words, errors.data(), layout,
                      got.data(), &got_max);
      scalar.masked_sum(bitmaps[i].data(), words, errors.data(), layout,
                        want.data(), &want_max);
      const std::string what =
          std::string(shape.name) + " column " + std::to_string(i);
      EXPECT_EQ(got, want) << what;
      EXPECT_EQ(got_max, want_max) << what;
      testing::ReferenceSum reference;
      double reference_max = 0.0;
      for (int64_t r = 0; r < shape.rows; ++r) {
        if (!bitmaps[i].Test(r)) continue;
        reference.Add(errors[static_cast<size_t>(r)]);
        reference_max = std::max(reference_max, errors[static_cast<size_t>(r)]);
      }
      ExpectBitEqual(reference.Round(), RoundLanes(got.data(), layout),
                     what + " sum");
      ExpectBitEqual(reference_max, std::bit_cast<double>(got_max),
                     what + " max");
    }
  }
}

TEST_P(SimdDifferentialTest, MaskedStatsEmptyMaskIsZero) {
  const SimdKernels& simd = KernelsFor(GetParam());
  const int64_t words = BitmapWords(256);
  const std::vector<uint64_t> mask(static_cast<size_t>(words), 0);
  const std::vector<double> errors = BuildErrors(words, 5);
  const SumLayout layout = LayoutOf(errors);
  std::vector<uint64_t> lanes(static_cast<size_t>(layout.lanes), 0);
  uint64_t max_bits = 0;
  simd.masked_sum(mask.data(), words, errors.data(), layout, lanes.data(),
                  &max_bits);
  EXPECT_EQ(lanes, std::vector<uint64_t>(lanes.size(), 0));
  EXPECT_EQ(max_bits, 0u);
  ExpectBitEqual(0.0, RoundLanes(lanes.data(), layout), "empty sum");
}

// Statistics of a candidate set, each sum rounded once.
struct CandidateStats {
  std::vector<double> sizes;
  std::vector<double> sums;
  std::vector<double> maxes;

  bool operator==(const CandidateStats& other) const {
    auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    return same(sizes, other.sizes) && same(sums, other.sums) &&
           same(maxes, other.maxes);
  }
};

// Unblocked, unvectorized reference for the cache-blocked candidate loop:
// intersect each candidate's columns over the full row range, then add its
// errors into a big-integer reference sum.
CandidateStats EvaluateCandidatesReference(const CandidateColumns* candidates,
                                           int64_t count, int64_t words,
                                           const double* errors) {
  const SimdKernels& scalar = KernelsFor(SimdIsa::kScalar);
  std::vector<uint64_t> scratch(static_cast<size_t>(words));
  CandidateStats out;
  for (int64_t c = 0; c < count; ++c) {
    scalar.intersect_columns(candidates[c].cols, candidates[c].len,
                             scratch.data(), words);
    testing::ReferenceSum sum;
    double max = 0.0;
    int64_t size = 0;
    for (int64_t r = 0; r < words * 64; ++r) {
      if (((scratch[static_cast<size_t>(r >> 6)] >> (r & 63)) & 1) == 0) {
        continue;
      }
      ++size;
      sum.Add(errors[r]);
      max = std::max(max, errors[r]);
    }
    out.sizes.push_back(static_cast<double>(size));
    out.sums.push_back(sum.Round());
    out.maxes.push_back(max);
  }
  return out;
}

// The blocked loop over rows [0, split) and then [split, 64 * words), both
// adding into the same accumulators, each sum rounded once at the end.
CandidateStats EvaluateBlocked(const SimdKernels& kernels,
                               const std::vector<CandidateColumns>& candidates,
                               int64_t words, const ErrorSource& errors,
                               int64_t split) {
  const size_t count = candidates.size();
  const int64_t stride = errors.layout.lanes;
  std::vector<int64_t> sizes(count, 0);
  std::vector<uint64_t> lanes(count * static_cast<size_t>(stride), 0);
  std::vector<uint64_t> max_bits(count, 0);
  for (const auto& [first_row, end_word] :
       {std::pair<int64_t, int64_t>{0, (split + 63) / 64}, {split, words}}) {
    // The first call ends at split's word; its rows past split are the
    // second call's, so it sees a copy of the columns cut at split.
    std::deque<std::vector<uint64_t>> cut;
    std::vector<std::vector<const uint64_t*>> cols;
    std::vector<CandidateColumns> view;
    for (const CandidateColumns& candidate : candidates) {
      std::vector<const uint64_t*> pointers;
      for (int32_t k = 0; k < candidate.len; ++k) {
        if (first_row > 0) {
          pointers.push_back(candidate.cols[k]);
          continue;
        }
        cut.emplace_back(candidate.cols[k], candidate.cols[k] + end_word);
        if (split % 64 != 0) {
          cut.back().back() &= (uint64_t{1} << (split % 64)) - 1;
        }
        pointers.push_back(cut.back().data());
      }
      cols.push_back(std::move(pointers));
    }
    for (const auto& pointers : cols) {
      view.push_back({pointers.data(), static_cast<int32_t>(pointers.size())});
    }
    EvaluateCandidatesBlocked(kernels, view.data(),
                              static_cast<int64_t>(count), end_word, errors,
                              sizes.data(), lanes.data(), max_bits.data(),
                              first_row);
  }
  CandidateStats out;
  for (size_t c = 0; c < count; ++c) {
    out.sizes.push_back(static_cast<double>(sizes[c]));
    out.sums.push_back(RoundLanes(lanes.data() + c * stride, errors.layout));
    out.maxes.push_back(std::bit_cast<double>(max_bits[c]));
  }
  return out;
}

TEST_P(SimdDifferentialTest, BlockedCandidateLoopMatchesUnblockedScalar) {
  const SimdKernels& simd = KernelsFor(GetParam());
  Rng rng(1729);
  // A row space large enough that the word tiling actually splits it
  // (> kWordTile words), with enough candidates to cross candidate tiles.
  const int64_t rows = 200000;  // 3125 words > one 2048-word tile
  const int64_t words = BitmapWords(rows);
  const int num_columns = 24;
  std::vector<Bitmap> bitmaps;
  for (int c = 0; c < num_columns; ++c) {
    Bitmap b(rows);
    // Mixed densities, plus one all-zero and one full column.
    const double density = (c == 0) ? 0.0 : (c == 1) ? 1.1 : 0.02 * c;
    for (int64_t r = 0; r < rows; ++r) {
      if (rng.NextBool(density)) b.Set(r);
    }
    bitmaps.push_back(std::move(b));
  }
  const std::vector<double> errors = BuildErrors(words, 99);

  // 100 candidates of widths 1..4 over random columns (> kCandidateTile=64,
  // so the candidate tiling splits too).
  const int64_t count = 100;
  std::vector<std::vector<const uint64_t*>> column_sets;
  column_sets.reserve(static_cast<size_t>(count));
  std::vector<CandidateColumns> candidates;
  for (int64_t i = 0; i < count; ++i) {
    std::vector<const uint64_t*> cols;
    const int len = static_cast<int>(rng.NextInt(1, 4));
    for (int j = 0; j < len; ++j) {
      cols.push_back(
          bitmaps[static_cast<size_t>(rng.NextInt(0, num_columns - 1))]
              .data());
    }
    column_sets.push_back(std::move(cols));
    candidates.push_back(
        {column_sets.back().data(),
         static_cast<int32_t>(column_sets.back().size())});
  }

  const ErrorSource source{errors.data(), LayoutOf(errors), nullptr};
  const CandidateStats want = EvaluateCandidatesReference(
      candidates.data(), count, words, errors.data());
  // One call over all rows, and cuts inside a word, at a word boundary and
  // at a word-tile boundary.
  for (int64_t split : {int64_t{0}, int64_t{77}, int64_t{64 * 1000},
                        int64_t{64 * 2048 + 5}}) {
    EXPECT_TRUE(EvaluateBlocked(simd, candidates, words, source, split) ==
                want)
        << "split at row " << split;
  }
}

TEST_P(SimdDifferentialTest, BlockedPlaneLoopMatchesAscendingChain) {
  // Errors on a small grid (k * unit, k < 2^planes) as bit-planes: the plane
  // path of the blocked loop must round every sum to the double of an
  // ascending-row scan into the big-integer reference sum, across word
  // tiles (> 2048 words), candidate tiles (> 64 candidates), a row count
  // that ends mid-word and a cut of the rows into two calls.
  const SimdKernels& simd = KernelsFor(GetParam());
  Rng rng(4242);
  const int64_t rows = 200000 - 37;
  const int64_t words = BitmapWords(rows);
  std::vector<Bitmap> bitmaps;
  for (int c = 0; c < 16; ++c) {
    Bitmap b(rows);
    const double density = c == 0 ? 0.0 : c == 1 ? 1.1 : 0.04 * c;
    for (int64_t r = 0; r < rows; ++r) {
      if (rng.NextBool(density)) b.Set(r);
    }
    bitmaps.push_back(std::move(b));
  }
  const int64_t count = 150;
  std::vector<std::vector<const uint64_t*>> column_sets;
  column_sets.reserve(static_cast<size_t>(count));
  std::vector<CandidateColumns> candidates;
  for (int64_t i = 0; i < count; ++i) {
    std::vector<const uint64_t*> cols;
    const int len = static_cast<int>(rng.NextInt(1, 4));
    for (int j = 0; j < len; ++j) {
      cols.push_back(bitmaps[static_cast<size_t>(rng.NextInt(0, 15))].data());
    }
    column_sets.push_back(std::move(cols));
    candidates.push_back({column_sets.back().data(),
                          static_cast<int32_t>(column_sets.back().size())});
  }

  // (planes, unit, powers_only): with powers_only every k has one bit set,
  // so a dense mask's largest k is far below the OR of its planes.
  for (const auto& [plane_count, unit, powers_only] :
       {std::tuple<int, double, bool>{1, 1.0, false},
        {3, 0.25, false},
        {6, 0.0625, false},
        {4, 2.0, true},
        {0, 1.0, false}}) {
    const std::string grid = std::to_string(plane_count) + " planes" +
                             (powers_only ? ", powers of two" : "");
    std::vector<double> errors(static_cast<size_t>(words) * 64, 0.0);
    std::vector<Bitmap> plane_bits(static_cast<size_t>(plane_count),
                                   Bitmap(rows));
    for (int64_t r = 0; r < rows; ++r) {
      // Mostly small k, so the walk's early exits and full descents both
      // run; the largest k occurs in a few rows only.
      int64_t k = 0;
      if (powers_only) {
        k = int64_t{1} << rng.NextInt(0, plane_count - 1);
      } else if (plane_count > 0) {
        k = rng.NextBool(0.001)
                ? (int64_t{1} << plane_count) - 1
                : rng.NextInt(0, (int64_t{1} << plane_count) / 2);
      }
      errors[static_cast<size_t>(r)] = static_cast<double>(k) * unit;
      for (int b = 0; b < plane_count; ++b) {
        if ((k >> b) & 1) plane_bits[static_cast<size_t>(b)].Set(r);
      }
    }
    std::vector<const uint64_t*> plane_words;
    for (const Bitmap& b : plane_bits) plane_words.push_back(b.data());
    const ErrorPlanes planes{plane_words.data(), plane_count,
                             std::ilogb(unit)};
    const ErrorSource source{errors.data(), LayoutOf(errors), &planes};
    const CandidateStats want = EvaluateCandidatesReference(
        candidates.data(), count, words, errors.data());
    for (int64_t split : {int64_t{0}, int64_t{64 * 2048 + 5}}) {
      EXPECT_TRUE(EvaluateBlocked(simd, candidates, words, source, split) ==
                  want)
          << grid << ", split at row " << split;
    }
  }
}

// The blocked loop over rows [0, split) and then [split, 64 * words), each
// row range in calls of at most `chunk` candidates. The first range reads
// one copy of each column cut at split, so candidates that share columns
// still share pointers and the loop still sees their sibling runs.
CandidateStats EvaluateInChunks(const SimdKernels& kernels,
                                const std::vector<CandidateColumns>& candidates,
                                int64_t words, const ErrorSource& errors,
                                int64_t split, int64_t chunk) {
  const size_t count = candidates.size();
  const int64_t stride = errors.layout.lanes;
  std::vector<int64_t> sizes(count, 0);
  std::vector<uint64_t> lanes(count * static_cast<size_t>(stride), 0);
  std::vector<uint64_t> max_bits(count, 0);
  const int64_t split_word = (split + 63) / 64;
  std::map<const uint64_t*, std::vector<uint64_t>> cut;
  std::vector<std::vector<const uint64_t*>> cut_cols;
  for (const CandidateColumns& candidate : candidates) {
    std::vector<const uint64_t*> pointers;
    for (int32_t k = 0; k < candidate.len; ++k) {
      const uint64_t* col = candidate.cols[k];
      auto [it, inserted] = cut.try_emplace(col, col, col + split_word);
      if (inserted && split % 64 != 0) {
        it->second.back() &= (uint64_t{1} << (split % 64)) - 1;
      }
      pointers.push_back(it->second.data());
    }
    cut_cols.push_back(std::move(pointers));
  }
  std::vector<CandidateColumns> cut_view;
  for (const auto& pointers : cut_cols) {
    cut_view.push_back(
        {pointers.data(), static_cast<int32_t>(pointers.size())});
  }
  for (const auto& [view, first_row, end_word] :
       {std::tuple<const CandidateColumns*, int64_t, int64_t>{
            cut_view.data(), 0, split_word},
        {candidates.data(), split, words}}) {
    for (size_t c = 0; c < count; c += static_cast<size_t>(chunk)) {
      EvaluateCandidatesBlocked(
          kernels, view + c,
          std::min<int64_t>(chunk, static_cast<int64_t>(count - c)),
          end_word, errors, sizes.data() + c, lanes.data() + c * stride,
          max_bits.data() + c, first_row);
    }
  }
  CandidateStats out;
  for (size_t c = 0; c < count; ++c) {
    out.sizes.push_back(static_cast<double>(sizes[c]));
    out.sums.push_back(RoundLanes(lanes.data() + c * stride, errors.layout));
    out.maxes.push_back(std::bit_cast<double>(max_bits[c]));
  }
  return out;
}

TEST_P(SimdDifferentialTest, SiblingRunsMatchUnblockedScalar) {
  // Candidates as the prefix join emits them: runs of siblings that share
  // their first len - 1 columns, at len 2 to 4, in runs of 1, 2 and more
  // than 64 (both cross a 64-candidate boundary), over two word tiles and
  // a row count that ends mid-word. One column is empty over the whole
  // first word tile, so a prefix holding it is too. Each error vector takes
  // its own path: 0/1 (one plane), quarters (several planes, so the max
  // walk descends) and wide (no planes).
  const SimdKernels& simd = KernelsFor(GetParam());
  Rng rng(8128);
  const int64_t rows = 64 * kEvaluateWordTile + 64 * 300 + 29;
  const int64_t words = BitmapWords(rows);
  std::vector<Bitmap> bitmaps;
  for (int c = 0; c < 20; ++c) {
    Bitmap b(rows);
    const double density = c == 0 ? 0.0 : c == 1 ? 1.1 : 0.05 * c;
    const int64_t start = c == 2 ? 64 * kEvaluateWordTile : 0;
    for (int64_t r = start; r < rows; ++r) {
      if (rng.NextBool(density)) b.Set(r);
    }
    bitmaps.push_back(std::move(b));
  }
  auto column = [&](int c) { return bitmaps[static_cast<size_t>(c)].data(); };

  // (len, siblings, first prefix column); the other prefix columns and the
  // siblings' last columns are drawn at random, so the last two runs share
  // only their first column.
  const std::tuple<int, int, int> runs[] = {
      {2, 1, 5}, {2, 2, 12}, {3, 70, 19}, {4, 2, 2},  {2, 1, 2},  {3, 1, 9},
      {2, 2, 0}, {4, 1, 11}, {3, 2, 18},  {2, 66, 17}, {4, 3, 1},  {3, 2, 7},
      {3, 2, 7},
  };
  std::vector<std::vector<const uint64_t*>> column_sets;
  std::vector<CandidateColumns> candidates;
  std::vector<int64_t> run_starts;
  for (const auto& [len, siblings, first] : runs) {
    std::vector<const uint64_t*> prefix = {column(first)};
    for (int k = 1; k + 1 < len; ++k) {
      prefix.push_back(column(static_cast<int>(rng.NextInt(1, 19))));
    }
    run_starts.push_back(static_cast<int64_t>(column_sets.size()));
    for (int s = 0; s < siblings; ++s) {
      std::vector<const uint64_t*> cols = prefix;
      cols.push_back(column(static_cast<int>(rng.NextInt(0, 19))));
      column_sets.push_back(std::move(cols));
    }
  }
  for (const auto& cols : column_sets) {
    candidates.push_back({cols.data(), static_cast<int32_t>(cols.size())});
  }
  const int64_t count = static_cast<int64_t>(candidates.size());
  EXPECT_TRUE(std::any_of(run_starts.begin(), run_starts.end(),
                          [](int64_t start) { return start % 64 > 0; }));

  // (name, unit, top k); a top k of 0 draws wide errors.
  for (const auto& [name, unit, top] :
       {std::tuple<const char*, double, int>{"0/1", 1.0, 1},
        {"quarters", 0.25, 7},
        {"wide", 0.0, 0}}) {
    std::vector<double> errors(static_cast<size_t>(words) * 64, 0.0);
    data::ErrorGrid grid;
    for (int64_t r = 0; r < rows; ++r) {
      // The top k is rare, so the walk both stops early and descends.
      errors[static_cast<size_t>(r)] =
          top == 0 ? rng.NextDouble() * 3.0
                   : static_cast<double>(rng.NextBool(0.002)
                                             ? top
                                             : rng.NextInt(0, top / 2 + 1)) *
                         unit;
      grid.Add(errors[static_cast<size_t>(r)]);
    }
    // The planes as the column store keeps them: bit b of each k over the
    // grid's unit.
    const int plane_count = top == 0 ? 0 : grid.planes();
    std::vector<Bitmap> plane_bits(static_cast<size_t>(plane_count),
                                   Bitmap(rows));
    for (int64_t r = 0; r < rows && plane_count > 0; ++r) {
      const auto k = static_cast<int64_t>(std::ldexp(
          errors[static_cast<size_t>(r)], -grid.low_exponent()));
      for (int b = 0; b < plane_count; ++b) {
        if ((k >> b) & 1) plane_bits[static_cast<size_t>(b)].Set(r);
      }
    }
    std::vector<const uint64_t*> plane_words;
    for (const Bitmap& b : plane_bits) plane_words.push_back(b.data());
    const ErrorPlanes planes{plane_words.data(), plane_count,
                             grid.low_exponent()};
    const ErrorSource source{errors.data(), grid.layout(),
                             top == 0 ? nullptr : &planes};
    const CandidateStats want = EvaluateCandidatesReference(
        candidates.data(), count, words, errors.data());
    // One call over all rows; first_row cuts mid-word inside the first and
    // the second word tile; and calls of 64 candidates, which cut the runs
    // that cross a 64-candidate boundary.
    for (const auto& [split, chunk] :
         {std::pair<int64_t, int64_t>{0, count},
          {77, count},
          {64 * kEvaluateWordTile + 5, count},
          {64 * 1000 + 13, 64}}) {
      EXPECT_TRUE(EvaluateInChunks(simd, candidates, words, source, split,
                                   chunk) == want)
          << name << " errors, split at row " << split << ", " << chunk
          << " candidates per call";
    }
  }
}

// fill_words of one feature, the middle of three row-major features: the
// words equal the scalar scatter's and the inverted lists over partial last
// words and a first word past 0; codes past a byte (up to 70000) match no
// listed code below 255; lists hold the domain's top code; the words before
// and after the written ones are left alone.
TEST_P(SimdDifferentialTest, FillWordsMatchesScalar) {
  const SimdKernels& simd = KernelsFor(GetParam());
  const SimdKernels& scalar = KernelsFor(SimdIsa::kScalar);
  constexpr int64_t kStride = 3;
  constexpr int64_t kFirstWord = 2;
  constexpr uint64_t kUntouched = 0xa5a5a5a5a5a5a5a5;
  Rng rng(97);
  for (int64_t rows : {1, 63, 64, 65, 200, 1000}) {
    for (int32_t domain : {1, 5, 254, 255, 256, 300, 70000}) {
      std::vector<int32_t> codes(static_cast<size_t>(rows * kStride));
      for (int32_t& code : codes) {
        code = static_cast<int32_t>(rng.NextInt(1, domain));
      }
      codes[static_cast<size_t>((rows - 1) * kStride + 1)] = domain;
      std::vector<std::vector<int32_t>> lists = {{domain}};
      if (domain > 1) lists.push_back({1, domain});
      // 255 is where codes past a byte saturate.
      if (domain > 255) lists.push_back({1, 254, 255});
      std::vector<int32_t> spread;  // up to 60 codes, ascending
      for (int32_t code = 1; code <= domain && spread.size() < 60;
           code += 1 + static_cast<int32_t>(rng.NextUint64(domain / 40 + 1))) {
        spread.push_back(code);
      }
      lists.push_back(spread);
      std::vector<int32_t> below_byte;  // every code below 255
      for (int32_t code = 1; code <= std::min(domain, 254); ++code) {
        below_byte.push_back(code);
      }
      lists.push_back(below_byte);
      for (const std::vector<int32_t>& values : lists) {
        const std::string what = "rows=" + std::to_string(rows) +
                                 " domain=" + std::to_string(domain) +
                                 " listed=" + std::to_string(values.size());
        const int32_t count = static_cast<int32_t>(values.size());
        std::vector<int32_t> slot(static_cast<size_t>(domain), count);
        for (int32_t k = 0; k < count; ++k) slot[values[k] - 1] = k;
        const int64_t words = (rows + 63) / 64;
        const size_t span = static_cast<size_t>(kFirstWord + words + 1);
        const auto fill = [&](const SimdKernels& kernels) {
          std::vector<uint64_t> out(values.size() * span, kUntouched);
          std::vector<uint64_t*> dst;
          for (size_t k = 0; k < values.size(); ++k) {
            dst.push_back(out.data() + k * span);
          }
          kernels.fill_words(codes.data() + 1, kStride, rows,
                             {values.data(), slot.data(), count, dst.data()},
                             kFirstWord);
          return out;
        };
        const std::vector<uint64_t> got = fill(simd);
        EXPECT_EQ(got, fill(scalar)) << what;
        for (size_t k = 0; k < values.size(); ++k) {
          std::vector<uint64_t> bits(span, kUntouched);
          for (int64_t w = 0; w < words; ++w) bits[kFirstWord + w] = 0;
          for (int64_t i = 0; i < rows; ++i) {
            if (codes[static_cast<size_t>(i * kStride + 1)] == values[k]) {
              bits[kFirstWord + (i >> 6)] |= uint64_t{1} << (i & 63);
            }
          }
          EXPECT_TRUE(std::equal(bits.begin(), bits.end(),
                                 got.begin() + k * span))
              << what << " code " << values[k];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, SimdDifferentialTest,
                         ::testing::Values(SimdIsa::kScalar, SimdIsa::kNeon,
                                           SimdIsa::kAvx2, SimdIsa::kAvx512),
                         [](const ::testing::TestParamInfo<SimdIsa>& info) {
                           return std::string(IsaName(info.param));
                         });

TEST(SimdDispatchTest, AvailableStartsWithScalar) {
  const std::vector<SimdIsa>& isas = AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), SimdIsa::kScalar);
}

TEST(SimdDispatchTest, ForceIsaOverridesSelection) {
  for (SimdIsa isa : AvailableIsas()) {
    ForceIsa(isa);
    EXPECT_EQ(SelectedIsa(), isa);
    EXPECT_EQ(ActiveKernels().isa, isa);
    EXPECT_STREQ(SelectedIsaName(), IsaName(isa));
  }
  ClearForcedIsa();
}

TEST(SimdDispatchTest, IsaNamesRoundTrip) {
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                      SimdIsa::kAvx512}) {
    SimdIsa parsed;
    ASSERT_TRUE(ParseIsaName(IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  SimdIsa parsed;
  EXPECT_FALSE(ParseIsaName("sse9", &parsed));
  EXPECT_FALSE(ParseIsaName("", &parsed));
}

}  // namespace
}  // namespace sliceline::linalg
