// Tests of the column store: packed column bitmaps against their inverted
// lists, lazy materialization of requested columns only, level-1
// statistics against a row-scan reference, both build passes and the fill
// memcmp-equal at every pool size, input checks from any row range, appends
// continuing the statistics and bitmaps, concurrent fills through the
// evaluator, the fill bit-identical at every ISA, its trace span, and the
// error grid with its error planes.
#include "data/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "data/generators/generators.h"
#include "linalg/bitmap.h"
#include "linalg/kernels_simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference_sum.h"

namespace sliceline::data {
namespace {

IntMatrix RandomCodes(uint64_t seed, int64_t n,
                      const std::vector<int32_t>& domains) {
  Rng rng(seed);
  IntMatrix x0(n, static_cast<int64_t>(domains.size()));
  for (int64_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < domains.size(); ++j) {
      x0.At(i, static_cast<int64_t>(j)) =
          static_cast<int32_t>(rng.NextUint64(domains[j])) + 1;
    }
  }
  return x0;
}

std::vector<double> RandomErrors(uint64_t seed, int64_t n) {
  Rng rng(seed);
  std::vector<double> errors(static_cast<size_t>(n));
  for (double& e : errors) e = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;
  return errors;
}

/// Reference bitmap of column `col`: its inverted list, packed.
linalg::Bitmap InvertedList(const IntMatrix& x0, const FeatureOffsets& offsets,
                            int64_t col) {
  const int feature = offsets.FeatureOfColumn(col);
  const int32_t code = offsets.CodeOfColumn(col);
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < x0.rows(); ++i) {
    if (x0.At(i, feature) == code) rows.push_back(i);
  }
  return linalg::Bitmap::FromRows(x0.rows(), rows);
}

bool SameWords(const uint64_t* a, const uint64_t* b, int64_t words) {
  return std::memcmp(a, b, static_cast<size_t>(words) * sizeof(uint64_t)) ==
         0;
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Rebuilds every row's error from the store's planes: 2^low * sum of 2^b
/// over the planes whose bit is set.
std::vector<double> ErrorsFromPlanes(const ColumnStore& store) {
  const linalg::ErrorPlanes* planes = store.error_planes();
  std::vector<double> out(static_cast<size_t>(store.rows()), 0.0);
  for (int64_t r = 0; r < store.rows(); ++r) {
    uint64_t k = 0;
    for (int32_t b = 0; b < planes->count; ++b) {
      k |= ((planes->planes[b][r >> 6] >> (r & 63)) & 1) << b;
    }
    out[static_cast<size_t>(r)] = std::ldexp(static_cast<double>(k), planes->low);
  }
  return out;
}

/// Everything two stores hold, memcmp-strict: offsets, level-1 statistics
/// with their exact sums, the error planes, and the columns each has built.
void ExpectSameStore(const ColumnStore& got, const ColumnStore& want,
                     const std::string& what) {
  EXPECT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(got.offsets().fdom, want.offsets().fdom) << what;
  EXPECT_EQ(got.offsets().fb, want.offsets().fb) << what;
  EXPECT_EQ(got.offsets().fe, want.offsets().fe) << what;
  EXPECT_EQ(got.basic_sizes(), want.basic_sizes()) << what;
  EXPECT_EQ(got.exact_basic_error_sums(), want.exact_basic_error_sums())
      << what;
  EXPECT_TRUE(SameDoubles(got.basic_error_sums(), want.basic_error_sums()))
      << what;
  EXPECT_TRUE(SameDoubles(got.basic_max_errors(), want.basic_max_errors()))
      << what;
  EXPECT_TRUE(SameDoubles({got.total_error()}, {want.total_error()})) << what;
  ASSERT_EQ(got.words(), want.words()) << what;
  ASSERT_EQ(got.error_planes() != nullptr, want.error_planes() != nullptr)
      << what;
  if (want.error_planes() != nullptr) {
    const linalg::ErrorPlanes& a = *got.error_planes();
    const linalg::ErrorPlanes& b = *want.error_planes();
    EXPECT_EQ(a.low, b.low) << what;
    ASSERT_EQ(a.count, b.count) << what;
    for (int32_t p = 0; p < a.count; ++p) {
      EXPECT_TRUE(SameWords(a.planes[p], b.planes[p], got.words()))
          << what << " plane " << p;
    }
  }
  EXPECT_EQ(got.built(), want.built()) << what;
  for (int64_t c = 0; c < want.offsets().total; ++c) {
    ASSERT_EQ(got.Column(c) != nullptr, want.Column(c) != nullptr)
        << what << " column " << c;
    if (want.Column(c) != nullptr) {
      EXPECT_TRUE(SameWords(got.Column(c), want.Column(c), got.words()))
          << what << " column " << c;
    }
  }
}

/// Every pair of columns from different features, as a slice set.
core::SliceSet AllPairs(const FeatureOffsets& offsets) {
  core::SliceSet set;
  for (int64_t a = 0; a < offsets.total; ++a) {
    for (int64_t b = a + 1; b < offsets.total; ++b) {
      if (offsets.FeatureOfColumn(a) != offsets.FeatureOfColumn(b)) {
        set.Add({a, b});
      }
    }
  }
  return set;
}

TEST(ColumnBitmapsTest, BuildPacksInvertedList) {
  IntMatrix x0(200, 2, 1);
  for (int64_t r : {0, 63, 64, 65, 199}) x0.At(r, 0) = 2;
  x0.At(7, 0) = 3;
  const FeatureOffsets offsets = OffsetsFromDomains({3, 2});
  const std::vector<double> errors(200, 0.5);
  const ColumnStore store(x0, offsets, errors);
  EXPECT_EQ(store.words(), linalg::BitmapWords(200));
  EXPECT_EQ(store.built(), 0);

  const int64_t col = offsets.ColumnOf(0, 2);
  EXPECT_EQ(store.Column(col), nullptr);
  store.Materialize(&col, 1, /*parallel=*/false);
  ASSERT_NE(store.Column(col), nullptr);
  EXPECT_EQ(store.built(), 1);
  EXPECT_EQ(store.memory_bytes(),
            store.words() * static_cast<int64_t>(sizeof(uint64_t)));
  const linalg::Bitmap expected =
      linalg::Bitmap::FromRows(200, {0, 63, 64, 65, 199});
  EXPECT_TRUE(SameWords(store.Column(col), expected.data(), store.words()));
}

TEST(ColumnBitmapsTest, BuildIsIdempotent) {
  const IntMatrix x0 = RandomCodes(3, 100, {3, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  const std::vector<double> errors = RandomErrors(4, 100);
  const ColumnStore store(x0, offsets, errors);
  const int64_t col = 1;
  store.Materialize(&col, 1, /*parallel=*/false);
  const uint64_t* first = store.Column(col);
  ASSERT_NE(first, nullptr);
  // A second request, with duplicates and one new column, leaves the built
  // column's buffer in place and builds only the new one.
  const std::vector<int64_t> again = {col, 4, col, 4};
  store.Materialize(again.data(), static_cast<int64_t>(again.size()),
                    /*parallel=*/false);
  EXPECT_EQ(store.Column(col), first);
  EXPECT_EQ(store.built(), 2);
  for (int64_t c : {col, int64_t{4}}) {
    EXPECT_TRUE(SameWords(store.Column(c),
                          InvertedList(x0, offsets, c).data(), store.words()))
        << c;
  }
}

TEST(ColumnBitmapsTest, EmptyColumnPacksToZeros) {
  // Frozen domain 4, but only codes 1..3 occur: column of code 4 is empty.
  const IntMatrix x0 = RandomCodes(5, 70, {3});
  const FeatureOffsets offsets = OffsetsFromDomains({4});
  const std::vector<double> errors(70, 1.0);
  const ColumnStore store(x0, offsets, errors);
  const int64_t col = offsets.ColumnOf(0, 4);
  store.Materialize(&col, 1, /*parallel=*/false);
  const uint64_t* words = store.Column(col);
  ASSERT_NE(words, nullptr);
  for (int64_t w = 0; w < store.words(); ++w) EXPECT_EQ(words[w], 0u);
  EXPECT_EQ(store.basic_sizes()[static_cast<size_t>(col)], 0);
}

TEST(ColumnStoreTest, LevelOneStatsMatchRowScanAcrossGeneratorShapes) {
  for (const DatasetInfo& info : ListDatasets()) {
    DatasetOptions options;
    options.rows = 2000;
    auto ds = MakeDatasetByName(info.name, options);
    ASSERT_TRUE(ds.ok()) << info.name;
    const FeatureOffsets offsets = ComputeOffsets(ds->x0);
    const ColumnStore store(ds->x0, offsets, ds->errors);

    // Reference: a row scan into big-integer sums, rounded once.
    const size_t l = static_cast<size_t>(offsets.total);
    std::vector<int64_t> sizes(l, 0);
    std::vector<testing::ReferenceSum> reference(l);
    std::vector<double> maxes(l, 0.0);
    testing::ReferenceSum total;
    for (double e : ds->errors) total.Add(e);
    for (int j = 0; j < offsets.num_features(); ++j) {
      for (int64_t i = 0; i < ds->n(); ++i) {
        const size_t c =
            static_cast<size_t>(offsets.ColumnOf(j, ds->x0.At(i, j)));
        const double e = ds->errors[static_cast<size_t>(i)];
        ++sizes[c];
        reference[c].Add(e);
        if (e > maxes[c]) maxes[c] = e;
      }
    }
    std::vector<double> sums;
    for (const testing::ReferenceSum& sum : reference) {
      sums.push_back(sum.Round());
    }
    EXPECT_EQ(store.rows(), ds->n()) << info.name;
    EXPECT_EQ(store.basic_sizes(), sizes) << info.name;
    EXPECT_TRUE(SameDoubles(store.basic_error_sums(), sums)) << info.name;
    EXPECT_TRUE(SameDoubles(store.basic_max_errors(), maxes)) << info.name;
    EXPECT_TRUE(SameDoubles({store.total_error()}, {total.Round()}))
        << info.name;
  }
}

TEST(ColumnStoreTest, OnlyRequestedColumnsMaterialize) {
  const IntMatrix x0 = RandomCodes(7, 1000, {5, 7, 3});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  const std::vector<double> errors = RandomErrors(8, 1000);
  const ColumnStore store(x0, offsets, errors);
  const std::vector<int64_t> requested = {1, 6, 6, 12};
  store.Materialize(requested.data(),
                    static_cast<int64_t>(requested.size()),
                    /*parallel=*/false);
  EXPECT_EQ(store.built(), 3);
  EXPECT_EQ(store.memory_bytes(),
            3 * store.words() * static_cast<int64_t>(sizeof(uint64_t)));
  for (int64_t c = 0; c < offsets.total; ++c) {
    const bool wanted = c == 1 || c == 6 || c == 12;
    EXPECT_EQ(store.Column(c) != nullptr, wanted) << c;
  }
}

TEST(ColumnStoreTest, ParallelFillMatchesInvertedLists) {
  // Not a multiple of 64 rows, so the last range ends mid-word.
  const int64_t n = 64 * 50 + 37;
  const IntMatrix x0 = RandomCodes(9, n, {4, 6, 2, 9});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  const std::vector<double> errors = RandomErrors(10, n);
  std::vector<int64_t> all(static_cast<size_t>(offsets.total));
  for (int64_t c = 0; c < offsets.total; ++c) all[static_cast<size_t>(c)] = c;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ResizeGlobalThreadPoolForTesting(threads);
    const ColumnStore store(x0, offsets, errors);
    store.Materialize(all.data(), offsets.total, /*parallel=*/true);
    for (int64_t c = 0; c < offsets.total; ++c) {
      EXPECT_TRUE(SameWords(store.Column(c),
                            InvertedList(x0, offsets, c).data(),
                            store.words()))
          << "threads=" << threads << " column " << c;
    }
  }
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(ColumnStoreTest, ExtendContinuesStatsAndBuiltColumns) {
  const IntMatrix full = RandomCodes(11, 700, {3, 5});
  const std::vector<double> full_errors = RandomErrors(12, 700);
  const FeatureOffsets offsets = ComputeOffsets(full);
  const ColumnStore one_shot(full, offsets, full_errors);

  IntMatrix x0(0, full.cols());
  std::vector<double> errors;
  auto append = [&](int64_t begin, int64_t end) {
    IntMatrix rows(end - begin, full.cols());
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t j = 0; j < full.cols(); ++j) {
        rows.At(i - begin, j) = full.At(i, j);
      }
      errors.push_back(full_errors[static_cast<size_t>(i)]);
    }
    x0.AppendRows(rows);
  };
  append(0, 100);
  ColumnStore store(x0, offsets, errors);
  const std::vector<int64_t> early = {0, 4};
  store.Materialize(early.data(), 2, /*parallel=*/false);
  append(100, 613);  // crosses padded-word growth
  store.Extend();
  append(613, 700);
  store.Extend();

  EXPECT_EQ(store.rows(), 700);
  EXPECT_EQ(store.total_error(), one_shot.total_error());
  EXPECT_EQ(store.basic_sizes(), one_shot.basic_sizes());
  EXPECT_EQ(store.basic_error_sums(), one_shot.basic_error_sums());
  EXPECT_EQ(store.basic_max_errors(), one_shot.basic_max_errors());
  EXPECT_EQ(store.built(), 2);
  std::vector<int64_t> all(static_cast<size_t>(offsets.total));
  for (int64_t c = 0; c < offsets.total; ++c) all[static_cast<size_t>(c)] = c;
  store.Materialize(all.data(), offsets.total, /*parallel=*/false);
  one_shot.Materialize(all.data(), offsets.total, /*parallel=*/false);
  ASSERT_EQ(store.words(), one_shot.words());
  for (int64_t c = 0; c < offsets.total; ++c) {
    EXPECT_TRUE(
        SameWords(store.Column(c), one_shot.Column(c), store.words()))
        << c;
  }
}

TEST(ColumnStoreTest, LevelOneStatsAreEqualAtAnyPoolSize) {
  // Enough codes for the row-parallel passes, and arbitrary doubles, so a
  // sum that rounded before the end would show in the last bits; then the
  // same rows on a dyadic grid, which keeps error planes.
  const int64_t n = 40000;
  const IntMatrix x0 = RandomCodes(15, n, {4, 9, 3, 7, 5, 2, 8, 6});
  ASSERT_GE(n * x0.cols(), ColumnStore::kParallelCodeCells);
  const FeatureOffsets offsets = ComputeOffsets(x0);
  const std::vector<double> arbitrary = RandomErrors(16, n);
  std::vector<double> dyadic = arbitrary;
  for (double& e : dyadic) e = std::round(e * 64.0) / 64.0;
  for (bool on_grid : {false, true}) {
    const std::vector<double>& errors = on_grid ? dyadic : arbitrary;
    ResizeGlobalThreadPoolForTesting(1);
    const ColumnStore serial(x0, offsets, errors);
    EXPECT_EQ(serial.error_planes() != nullptr, on_grid);
    for (size_t threads : {size_t{2}, size_t{3}, size_t{8}}) {
      ResizeGlobalThreadPoolForTesting(threads);
      const ColumnStore parallel(x0, offsets, errors);
      ExpectSameStore(parallel, serial,
                      "threads=" + std::to_string(threads) +
                          (on_grid ? " on grid" : ""));
    }
  }
  ResizeGlobalThreadPoolForTesting(0);
}

/// Error vectors of the three sum layouts the passes take: a narrow layout
/// without planes, a wide one, and a dyadic grid with planes.
std::vector<std::pair<std::string, std::vector<double>>> LayoutErrors(
    uint64_t seed, int64_t n) {
  Rng rng(seed);
  std::vector<double> narrow(static_cast<size_t>(n));
  std::vector<double> wide(static_cast<size_t>(n));
  std::vector<double> planes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const size_t r = static_cast<size_t>(i);
    narrow[r] = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;
    wide[r] = rng.NextBool(0.2)
                  ? 0.0
                  : std::ldexp(rng.NextDouble(),
                               static_cast<int>(rng.NextInt(-700, 700)));
    planes[r] = 0.25 * static_cast<double>(rng.NextInt(0, 12));
  }
  return {{"narrow", narrow}, {"wide", wide}, {"planes", planes}};
}

/// Features enough for `rows` rows to reach the parallel passes when they
/// span more than one word, else three.
int64_t FeaturesForParallelRows(int64_t first_row, int64_t rows) {
  if (((first_row + rows + 63) >> 6) - (first_row >> 6) < 2) return 3;
  return (ColumnStore::kParallelCodeCells + rows - 1) / rows;
}

/// Random domains for `m` features: 1 to 4 codes, fewer when `rows` rows
/// are few, so that at least two ranges of the parallel passes get
/// kCodesPerStateWord codes per one-hot column where the rows allow it.
std::vector<int32_t> SmallDomains(uint64_t seed, int64_t m, int64_t rows) {
  const int64_t most = std::clamp<int64_t>(
      rows / (2 * ColumnStore::kCodesPerStateWord), 1, 4);
  Rng rng(seed);
  std::vector<int32_t> domains(static_cast<size_t>(m));
  for (int32_t& d : domains) d = static_cast<int32_t>(rng.NextInt(1, most));
  return domains;
}

TEST(ColumnStoreTest, PassesAreEqualAtEveryPoolSize) {
  // Single-word inputs, word boundaries, and a last range ending mid-word;
  // the inputs of more than one word split into several ranges at every
  // pool size above 1.
  for (int64_t n : {int64_t{1}, int64_t{63}, int64_t{64}, int64_t{65},
                    int64_t{64 * 50 + 37}}) {
    const int64_t m = FeaturesForParallelRows(0, n);
    const IntMatrix x0 = RandomCodes(40 + static_cast<uint64_t>(n), n,
                                     SmallDomains(41, m, n));
    for (const auto& [layout, errors] : LayoutErrors(42, n)) {
      const std::string shape =
          "n=" + std::to_string(n) + " m=" + std::to_string(m) + " " + layout;
      ResizeGlobalThreadPoolForTesting(1);
      const auto serial = ColumnStore::Build(x0, errors).value();
      // The derived offsets are the colMaxs ones, as ComputeOffsets'.
      const FeatureOffsets want = OffsetsFromDomains(x0.ColMaxs());
      EXPECT_EQ(serial->offsets().fdom, want.fdom) << shape;
      EXPECT_EQ(serial->offsets().fb, want.fb) << shape;
      EXPECT_EQ(serial->offsets().total, want.total) << shape;
      // One error alone always fits a narrow layout.
      EXPECT_EQ(serial->error_source().layout.narrow,
                layout != "wide" || n == 1)
          << shape;
      if (layout == "planes") {
        ASSERT_NE(serial->error_planes(), nullptr) << shape;
        EXPECT_EQ(ErrorsFromPlanes(*serial), errors) << shape;
      }
      for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
        ResizeGlobalThreadPoolForTesting(threads);
        const std::string what = shape + " threads=" + std::to_string(threads);
        const auto store = ColumnStore::Build(x0, errors).value();
        ExpectSameStore(*store, *serial, what);
        EXPECT_EQ(store->built(), 0) << what;
        // The fill over the same ranges: the odd columns first, then all.
        std::vector<int64_t> odd;
        for (int64_t c = 1; c < want.total; c += 2) odd.push_back(c);
        store->Materialize(odd.data(), static_cast<int64_t>(odd.size()),
                           /*parallel=*/true);
        EXPECT_EQ(store->built(), static_cast<int64_t>(odd.size())) << what;
        std::vector<int64_t> all(static_cast<size_t>(want.total));
        std::iota(all.begin(), all.end(), int64_t{0});
        store->Materialize(all.data(), want.total, /*parallel=*/true);
        for (int64_t c = 0; c < want.total; ++c) {
          EXPECT_TRUE(SameWords(store->Column(c),
                                InvertedList(x0, want, c).data(),
                                store->words()))
              << what << " column " << c;
        }
      }
    }
  }
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(ColumnStoreTest, ExtendFromMidWordEqualsOneShotBuildAtEveryPoolSize) {
  for (const auto& [n, split] :
       {std::pair<int64_t, int64_t>{65, 37}, {64 * 50 + 37, 37},
        {64 * 50 + 37, 1000}}) {
    const int64_t m = FeaturesForParallelRows(split, n - split);
    const IntMatrix full = RandomCodes(50 + static_cast<uint64_t>(n), n,
                                       SmallDomains(51, m, n - split));
    const FeatureOffsets offsets = ComputeOffsets(full);
    IntMatrix head(split, m);
    std::copy_n(full.data().begin(), split * m, head.row(0));
    IntMatrix tail(n - split, m);
    std::copy_n(full.data().begin() + split * m, (n - split) * m, tail.row(0));
    for (const auto& [layout, full_errors] : LayoutErrors(52, n)) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
        ResizeGlobalThreadPoolForTesting(threads);
        const std::string what = "n=" + std::to_string(n) + " split=" +
                                 std::to_string(split) + " " + layout +
                                 " threads=" + std::to_string(threads);
        IntMatrix x0 = head;
        std::vector<double> errors(full_errors.begin(),
                                   full_errors.begin() + split);
        ColumnStore store(x0, offsets, errors);
        // Build every other column before the append: Extend continues
        // them through its first, shared word.
        std::vector<int64_t> early;
        for (int64_t c = 0; c < offsets.total; c += 2) early.push_back(c);
        store.Materialize(early.data(), static_cast<int64_t>(early.size()),
                          /*parallel=*/true);
        x0.AppendRows(tail);
        errors.insert(errors.end(), full_errors.begin() + split,
                      full_errors.end());
        store.Extend();
        const ColumnStore one_shot(full, offsets, full_errors);
        one_shot.Materialize(early.data(), static_cast<int64_t>(early.size()),
                             /*parallel=*/false);
        ExpectSameStore(store, one_shot, what);
      }
    }
  }
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(ColumnStoreTest, ChecksFireFromTheLastRange) {
  const int64_t n = 64 * 50 + 37;
  const int64_t m = FeaturesForParallelRows(0, n);
  const IntMatrix x0 = RandomCodes(60, n, SmallDomains(61, m, n));
  const std::vector<double> errors = RandomErrors(62, n);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    ResizeGlobalThreadPoolForTesting(threads);
    const std::string what = "threads=" + std::to_string(threads);
    std::vector<double> negative = errors;
    negative[static_cast<size_t>(n - 2)] = -0.5;
    const Status bad_error = ColumnStore::Build(x0, negative).status();
    EXPECT_EQ(bad_error.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(bad_error.message().find(std::to_string(n - 2)),
              std::string::npos)
        << what << ": " << bad_error.ToString();
    IntMatrix zero = x0;
    zero.At(n - 1, m - 1) = 0;
    EXPECT_EQ(ColumnStore::Build(zero, errors).status(),
              CodeBelowOne(n - 1, m - 1, 0))
        << what;
  }
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(ColumnStoreTest, CounterCountsTheColumnsFilledLazily) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  registry->ResetValues();
  const IntMatrix x0 = RandomCodes(70, 500, {5, 7, 3});
  const std::vector<double> errors = RandomErrors(71, 500);
  const auto store = ColumnStore::Build(x0, errors).value();
  const int64_t total = store->offsets().total;
  obs::Counter* lazy = registry->GetCounter("column_store/columns_lazy");
  EXPECT_EQ(lazy->Value(), 0);
  // Duplicates and columns already built count once.
  const std::vector<int64_t> some = {3, 0, 3, 9};
  store->Materialize(some.data(), 4, /*parallel=*/false);
  EXPECT_EQ(lazy->Value(), 3);
  std::vector<int64_t> all(static_cast<size_t>(total));
  std::iota(all.begin(), all.end(), int64_t{0});
  store->Materialize(all.data(), total, /*parallel=*/false);
  EXPECT_EQ(lazy->Value(), total);
  registry->ResetValues();
  obs::SetMetricsEnabled(was_enabled);
}

/// The column counts of the column_store/fill spans recorded since the
/// last call.
std::vector<int64_t> TakeFillSpans() {
  std::vector<int64_t> columns;
  for (const obs::TraceEvent& event :
       obs::TraceRecorder::Default()->TakeEvents()) {
    if (std::string(event.name) == "column_store/fill") {
      columns.push_back(event.arg);
    }
  }
  return columns;
}

TEST(ColumnStoreTest, FillSpanMarksEachCallThatBuildsColumns) {
  obs::TraceRecorder* recorder = obs::TraceRecorder::Default();
  const bool was_enabled = recorder->enabled();
  const IntMatrix full = RandomCodes(72, 500, {5, 7, 3});
  const std::vector<double> full_errors = RandomErrors(73, 500);
  IntMatrix x0(300, full.cols());
  std::copy_n(full.data().begin(), 300 * full.cols(), x0.row(0));
  std::vector<double> errors(full_errors.begin(), full_errors.begin() + 300);
  const FeatureOffsets offsets = ComputeOffsets(full);
  ColumnStore store(x0, offsets, errors);
  recorder->SetEnabled(true);
  recorder->Clear();
  const std::vector<int64_t> some = {3, 0, 3, 9};
  store.Materialize(some.data(), 4, /*parallel=*/false);
  EXPECT_EQ(TakeFillSpans(), std::vector<int64_t>{3});
  // Every listed column is built: no fill, no span.
  store.Materialize(some.data(), 4, /*parallel=*/true);
  EXPECT_EQ(TakeFillSpans(), std::vector<int64_t>{});
  // Extend refills the three built columns over the appended rows.
  IntMatrix tail(200, full.cols());
  std::copy_n(full.data().begin() + 300 * full.cols(), 200 * full.cols(),
              tail.row(0));
  x0.AppendRows(tail);
  errors.insert(errors.end(), full_errors.begin() + 300, full_errors.end());
  store.Extend();
  EXPECT_EQ(TakeFillSpans(), std::vector<int64_t>{3});
  std::vector<int64_t> all(static_cast<size_t>(store.offsets().total));
  std::iota(all.begin(), all.end(), int64_t{0});
  store.Materialize(all.data(), store.offsets().total, /*parallel=*/true);
  EXPECT_EQ(TakeFillSpans(), std::vector<int64_t>{store.offsets().total - 3});
  recorder->SetEnabled(was_enabled);
}

TEST(ColumnStoreTest, FillIsBitIdenticalAtEveryIsaAndPoolSize) {
  // The last word is partial and the append starts mid-word. Feature 0 has
  // codes past a byte, which saturate in the vector fills' byte pack;
  // feature 1 lists 254 columns, the most a byte compare takes; the rest
  // are small and enough for the parallel fill.
  const int64_t n = 64 * 40 + 37;
  const int64_t split = 64 * 17 + 29;
  std::vector<int32_t> domains =
      SmallDomains(70, FeaturesForParallelRows(split, n - split), n - split);
  domains[0] = 300;
  domains[1] = 254;
  IntMatrix full = RandomCodes(71, n, domains);
  // Every feature's top code, in the first word and in the partial last.
  for (size_t j = 0; j < domains.size(); ++j) {
    full.At(5, static_cast<int64_t>(j)) = domains[j];
    full.At(n - 1, static_cast<int64_t>(j)) = domains[j];
  }
  const FeatureOffsets offsets = OffsetsFromDomains(domains);
  const std::vector<double> full_errors = RandomErrors(72, n);
  std::vector<linalg::Bitmap> want;
  for (int64_t c = 0; c < offsets.total; ++c) {
    want.push_back(InvertedList(full, offsets, c));
  }
  // First codes 1, 2 and 254 of feature 0, which its rows' codes past a
  // byte must not match, and every other feature's first and top codes;
  // then every column. Both lists repeat columns.
  std::vector<int64_t> early = {offsets.ColumnOf(0, 1), offsets.ColumnOf(0, 2),
                                offsets.ColumnOf(0, 254)};
  for (int j = 1; j < offsets.num_features(); ++j) {
    early.push_back(offsets.fb[j]);
    early.push_back(offsets.fe[j] - 1);
  }
  const std::vector<int64_t> repeated(early.begin(), early.begin() + 6);
  early.insert(early.end(), repeated.begin(), repeated.end());
  std::vector<int64_t> all(static_cast<size_t>(offsets.total));
  std::iota(all.begin(), all.end(), int64_t{0});
  all.insert(all.end(), early.begin(), early.end());
  const auto expect_built = [&](const ColumnStore& store,
                                const std::vector<int64_t>& cols,
                                const std::string& what) {
    for (int64_t c : cols) {
      ASSERT_NE(store.Column(c), nullptr) << what << " column " << c;
      EXPECT_TRUE(SameWords(store.Column(c), want[static_cast<size_t>(c)].data(),
                            store.words()))
          << what << " column " << c;
    }
  };

  IntMatrix tail(n - split, full.cols());
  std::copy_n(full.data().begin() + split * full.cols(),
              (n - split) * full.cols(), tail.row(0));
  for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
    linalg::ForceIsa(isa);
    for (size_t threads = 1; threads <= 4; ++threads) {
      ResizeGlobalThreadPoolForTesting(threads);
      for (bool parallel : {false, true}) {
        const std::string what = std::string(linalg::IsaName(isa)) +
                                 " threads=" + std::to_string(threads) +
                                 (parallel ? " parallel" : " serial");
        const ColumnStore store(full, offsets, full_errors);
        store.Materialize(early.data(), static_cast<int64_t>(early.size()),
                          parallel);
        expect_built(store, early, what);
        store.Materialize(all.data(), static_cast<int64_t>(all.size()),
                          parallel);
        expect_built(store, all, what);
        EXPECT_EQ(store.built(), offsets.total) << what;

        // Extend refills the early columns from the append's first word.
        IntMatrix x0(split, full.cols());
        std::copy_n(full.data().begin(), split * full.cols(), x0.row(0));
        std::vector<double> errors(full_errors.begin(),
                                   full_errors.begin() + split);
        ColumnStore grown(x0, offsets, errors);
        grown.Materialize(early.data(), static_cast<int64_t>(early.size()),
                          parallel);
        x0.AppendRows(tail);
        errors.insert(errors.end(), full_errors.begin() + split,
                      full_errors.end());
        grown.Extend();
        expect_built(grown, early, what + " extended");
        grown.Materialize(all.data(), static_cast<int64_t>(all.size()),
                          parallel);
        expect_built(grown, all, what + " extended");
      }
    }
  }
  linalg::ClearForcedIsa();
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(ColumnStoreTest, ZeroOneErrorsGetOnePlane) {
  const IntMatrix x0 = RandomCodes(17, 300, {3, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  Rng rng(18);
  std::vector<double> errors(300);
  for (double& e : errors) e = rng.NextBool(0.3) ? 1.0 : 0.0;
  const ColumnStore store(x0, offsets, errors);
  const linalg::ErrorPlanes* planes = store.error_planes();
  ASSERT_NE(planes, nullptr);
  EXPECT_EQ(planes->count, 1);
  EXPECT_EQ(planes->low, 0);
  EXPECT_EQ(ErrorsFromPlanes(store), errors);
}

TEST(ColumnStoreTest, DyadicGridGetsSeveralPlanes) {
  const IntMatrix x0 = RandomCodes(19, 130, {3, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  Rng rng(20);
  std::vector<double> errors(130);
  for (double& e : errors) e = 0.25 * static_cast<double>(rng.NextInt(0, 12));
  errors[7] = 0.25;  // the finest step occurs
  errors[9] = 3.0;   // k = 12 needs four planes
  const ColumnStore store(x0, offsets, errors);
  const linalg::ErrorPlanes* planes = store.error_planes();
  ASSERT_NE(planes, nullptr);
  EXPECT_EQ(planes->low, -2);
  EXPECT_EQ(planes->count, 4);
  EXPECT_EQ(ErrorsFromPlanes(store), errors);
}

TEST(ColumnStoreTest, OffGridErrorsSumExactlyWithoutPlanes) {
  const IntMatrix x0 = RandomCodes(21, 100, {3, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  std::vector<double> errors(100, 0.0);
  errors[3] = 1.0;
  errors[50] = 0.1;  // 0.1 next to 1.0 spans 56 bits: far too many planes
  errors[70] = 0.2;
  errors[71] = 0.7;
  const ColumnStore store(x0, offsets, errors);
  EXPECT_EQ(store.error_planes(), nullptr);
  // The exact sum of 1 + 0.1 + 0.2 + 0.7 rounds once; the float chain
  // rounds after every add.
  testing::ReferenceSum total;
  for (double e : errors) total.Add(e);
  EXPECT_TRUE(SameDoubles({store.total_error()}, {total.Round()}));
  const linalg::SumLayout layout = store.error_source().layout;
  EXPECT_LE(layout.anchor, std::ilogb(0.1) - 52);
  EXPECT_EQ(layout.anchor % 32, 0);
}

TEST(ColumnStoreTest, WideSpreadErrorsSumExactlyEverywhere) {
  // Magnitudes from 2^-700 to 2^700 and a subnormal: far too many bits for
  // one 128-bit register, so every sum runs through accumulator lanes.
  const IntMatrix x0 = RandomCodes(29, 700, {3, 4, 2});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  Rng rng(30);
  std::vector<double> errors(700);
  for (double& e : errors) {
    e = rng.NextBool(0.2) ? 0.0
                          : std::ldexp(rng.NextDouble(),
                                       static_cast<int>(rng.NextInt(-700, 700)));
  }
  errors[11] = std::numeric_limits<double>::denorm_min();
  const ColumnStore store(x0, offsets, errors);
  EXPECT_FALSE(store.error_source().layout.narrow);
  testing::ReferenceSum total;
  std::vector<testing::ReferenceSum> columns(
      static_cast<size_t>(offsets.total));
  for (int64_t i = 0; i < x0.rows(); ++i) {
    total.Add(errors[static_cast<size_t>(i)]);
    for (int j = 0; j < offsets.num_features(); ++j) {
      columns[static_cast<size_t>(offsets.ColumnOf(j, x0.At(i, j)))].Add(
          errors[static_cast<size_t>(i)]);
    }
  }
  std::vector<double> want;
  for (const testing::ReferenceSum& sum : columns) want.push_back(sum.Round());
  EXPECT_TRUE(SameDoubles(store.basic_error_sums(), want));
  EXPECT_TRUE(SameDoubles({store.total_error()}, {total.Round()}));
  // Every pair of columns through the evaluation loop.
  const core::SliceSet pairs = AllPairs(offsets);
  core::SliceLineConfig config;
  const core::EvalResult got =
      core::SliceEvaluator(store).Evaluate(pairs, config).value();
  for (int64_t s = 0; s < pairs.size(); ++s) {
    testing::ReferenceSum sum;
    for (int64_t i = 0; i < x0.rows(); ++i) {
      const int64_t* cols = pairs.Columns(s);
      if (x0.At(i, offsets.FeatureOfColumn(cols[0])) ==
              offsets.CodeOfColumn(cols[0]) &&
          x0.At(i, offsets.FeatureOfColumn(cols[1])) ==
              offsets.CodeOfColumn(cols[1])) {
        sum.Add(errors[static_cast<size_t>(i)]);
      }
    }
    EXPECT_TRUE(SameDoubles({got.error_sums[static_cast<size_t>(s)]},
                            {sum.Round()}))
        << "pair " << s;
  }
}

TEST(ColumnStoreTest, AllZeroErrorsHaveNoPlanesToCount) {
  const IntMatrix x0 = RandomCodes(22, 100, {3, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  const std::vector<double> errors(100, 0.0);
  const ColumnStore store(x0, offsets, errors);
  ASSERT_NE(store.error_planes(), nullptr);
  EXPECT_EQ(store.error_planes()->count, 0);
}

TEST(ColumnStoreTest, TooManyPlanesSumWithoutPlanes) {
  const IntMatrix x0 = RandomCodes(23, 100, {3, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  std::vector<double> errors(100, 1.0);
  // k = 2^(kMaxErrorPlanes-1) still fits; one more bit does not.
  errors[5] = std::ldexp(1.0, ColumnStore::kMaxErrorPlanes - 1);
  const ColumnStore widest(x0, offsets, errors);
  ASSERT_NE(widest.error_planes(), nullptr);
  EXPECT_EQ(widest.error_planes()->count, ColumnStore::kMaxErrorPlanes);
  errors[5] = std::ldexp(1.0, ColumnStore::kMaxErrorPlanes);
  EXPECT_EQ(ColumnStore(x0, offsets, errors).error_planes(), nullptr);
}

TEST(ErrorGridTest, NeverFailsAndTracksTheBitSpread) {
  // Sums past 2^53 units, a tenth next to 1.0, the largest double and the
  // smallest subnormal: every finite, non-negative error folds in.
  ErrorGrid grid;
  EXPECT_EQ(grid.planes(), 0);
  for (int i = 0; i < 4; ++i) grid.Add(std::ldexp(1.0, 51));
  grid.Add(1.0);
  EXPECT_EQ(grid.low_exponent(), 0);
  EXPECT_EQ(grid.top_exponent(), 52);
  EXPECT_EQ(grid.planes(), 52);
  grid.Add(0.1);  // 0x1.999999999999ap-4: lowest set bit 2^-55
  EXPECT_EQ(grid.low_exponent(), -55);
  EXPECT_EQ(grid.planes(), 52 + 55);
  grid.Add(std::numeric_limits<double>::max());
  grid.Add(std::numeric_limits<double>::denorm_min());
  grid.Add(0.0);
  EXPECT_EQ(grid.low_exponent(), -1074);
  EXPECT_EQ(grid.top_exponent(), 1024);
  // The layout reaches below every significand and above the top bit.
  const linalg::SumLayout layout = grid.layout();
  EXPECT_LE(layout.anchor, -1074);
  EXPECT_GE(layout.anchor + 32 * layout.lanes, 1024 + 64);
}

TEST(ErrorGridTest, FinerUnitRescalesEarlierErrors) {
  ErrorGrid grid;
  grid.Add(std::ldexp(1.0, 52));  // u = 2^52, k = 1
  EXPECT_EQ(grid.low_exponent(), 52);
  EXPECT_EQ(grid.planes(), 1);
  grid.Add(1.0);  // u = 1: k = 2^52 and 1
  EXPECT_EQ(grid.low_exponent(), 0);
  EXPECT_EQ(grid.planes(), 53);
  grid.Add(std::ldexp(3.0, -60));  // u = 2^-60
  EXPECT_EQ(grid.low_exponent(), -60);
  EXPECT_EQ(grid.planes(), 113);
}

TEST(ColumnStoreTest, ExtendOnGridEqualsOneShotBuild) {
  const IntMatrix full = RandomCodes(24, 700, {3, 5});
  Rng rng(25);
  std::vector<double> full_errors(700, 0.0);
  // Rows [0, 100) are all zero, [100, 400) multiples of 1, [400, 700)
  // multiples of 0.125: the appends first create the planes, then refine
  // the unit and move them up.
  for (int64_t i = 100; i < 700; ++i) {
    const double step = i < 400 ? 1.0 : 0.125;
    full_errors[static_cast<size_t>(i)] =
        step * static_cast<double>(rng.NextInt(0, 5));
  }
  const FeatureOffsets offsets = ComputeOffsets(full);
  const ColumnStore one_shot(full, offsets, full_errors);
  ASSERT_NE(one_shot.error_planes(), nullptr);

  IntMatrix x0(0, full.cols());
  std::vector<double> errors;
  auto append = [&](int64_t begin, int64_t end) {
    IntMatrix rows(end - begin, full.cols());
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t j = 0; j < full.cols(); ++j) {
        rows.At(i - begin, j) = full.At(i, j);
      }
      errors.push_back(full_errors[static_cast<size_t>(i)]);
    }
    x0.AppendRows(rows);
  };
  append(0, 100);
  ColumnStore store(x0, offsets, errors);
  ASSERT_NE(store.error_planes(), nullptr);
  EXPECT_EQ(store.error_planes()->count, 0);
  for (const auto& [begin, end] :
       {std::pair<int64_t, int64_t>{100, 400}, {400, 650}, {650, 700}}) {
    append(begin, end);
    store.Extend();
    ASSERT_NE(store.error_planes(), nullptr) << end;
    EXPECT_EQ(ErrorsFromPlanes(store), errors) << end;
  }
  const linalg::ErrorPlanes& got = *store.error_planes();
  const linalg::ErrorPlanes& want = *one_shot.error_planes();
  EXPECT_EQ(got.low, want.low);
  ASSERT_EQ(got.count, want.count);
  for (int32_t b = 0; b < got.count; ++b) {
    EXPECT_TRUE(SameWords(got.planes[b], want.planes[b], store.words()))
        << "plane " << b;
  }
  EXPECT_TRUE(SameDoubles(store.basic_error_sums(),
                          one_shot.basic_error_sums()));
}

TEST(ColumnStoreTest, ExtendPastThePlanesDropsThemAndMatchesFreshStore) {
  const IntMatrix full = RandomCodes(26, 900, {4, 6, 3});
  Rng rng(27);
  std::vector<double> full_errors(900);
  for (double& e : full_errors) e = rng.NextBool(0.4) ? 1.0 : 0.0;
  full_errors[850] = 0.1;
  const FeatureOffsets offsets = ComputeOffsets(full);

  IntMatrix x0(0, full.cols());
  std::vector<double> errors;
  auto append = [&](int64_t begin, int64_t end) {
    IntMatrix rows(end - begin, full.cols());
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t j = 0; j < full.cols(); ++j) {
        rows.At(i - begin, j) = full.At(i, j);
      }
      errors.push_back(full_errors[static_cast<size_t>(i)]);
    }
    x0.AppendRows(rows);
  };
  append(0, 800);
  ColumnStore store(x0, offsets, errors);
  ASSERT_NE(store.error_planes(), nullptr);
  const core::SliceSet pairs = AllPairs(offsets);
  core::SliceLineConfig config;
  config.parallel = false;
  // Evaluate once on planes, so the columns are built before the append.
  EXPECT_TRUE(core::SliceEvaluator(store).Evaluate(pairs, config).ok());
  append(800, 900);
  store.Extend();
  EXPECT_EQ(store.error_planes(), nullptr);

  const ColumnStore fresh(full, offsets, full_errors);
  const core::EvalResult got =
      core::SliceEvaluator(store).Evaluate(pairs, config).value();
  const core::EvalResult want =
      core::SliceEvaluator(fresh).Evaluate(pairs, config).value();
  EXPECT_EQ(got.sizes, want.sizes);
  EXPECT_TRUE(SameDoubles(got.error_sums, want.error_sums));
  EXPECT_TRUE(SameDoubles(got.max_errors, want.max_errors));
}

TEST(ColumnStoreTest, PlaneStatisticsEqualTheChainForEveryGenerator) {
  // Levels 1-3 of every generator's one-hot space (level 3 sampled), the
  // plane path against the exact masked kernel alone over the same bitmaps,
  // at every ISA: sizes, accumulators and maxima equal.
  for (const DatasetInfo& info : ListDatasets()) {
    DatasetOptions options;
    options.rows = 5000;
    auto ds = MakeDatasetByName(info.name, options);
    ASSERT_TRUE(ds.ok()) << info.name;
    // Regression generators produce off-grid squared losses; put them on a
    // dyadic grid so every generator's shape runs the plane path.
    std::vector<double> errors = ds->errors;
    if (info.task == "Reg.") {
      for (double& e : errors) e = std::round(e * 64.0) / 64.0;
    }
    const FeatureOffsets offsets = ComputeOffsets(ds->x0);
    const ColumnStore store(ds->x0, offsets, errors);
    const linalg::ErrorPlanes* planes = store.error_planes();
    ASSERT_NE(planes, nullptr) << info.name;

    Rng rng(28);
    std::vector<std::vector<int64_t>> slices;
    for (int64_t c = 0; c < offsets.total; ++c) slices.push_back({c});
    for (int level = 2; level <= 3; ++level) {
      for (int s = 0; s < 300; ++s) {
        // Distinct features, drawn until the slice has `level` of them.
        std::vector<int64_t> cols;
        while (static_cast<int>(cols.size()) < level) {
          const int feature = static_cast<int>(
              rng.NextInt(0, offsets.num_features() - 1));
          if (std::none_of(cols.begin(), cols.end(), [&](int64_t c) {
                return offsets.FeatureOfColumn(c) == feature;
              })) {
            cols.push_back(offsets.ColumnOf(
                feature, static_cast<int32_t>(
                             rng.NextInt(1, offsets.fdom[feature]))));
          }
        }
        std::sort(cols.begin(), cols.end());
        slices.push_back(cols);
      }
    }
    std::vector<int64_t> all;
    for (const auto& cols : slices) {
      all.insert(all.end(), cols.begin(), cols.end());
    }
    store.Materialize(all.data(), static_cast<int64_t>(all.size()),
                      /*parallel=*/false);
    std::vector<std::vector<const uint64_t*>> words(slices.size());
    std::vector<linalg::CandidateColumns> candidates;
    for (size_t i = 0; i < slices.size(); ++i) {
      for (int64_t c : slices[i]) words[i].push_back(store.Column(c));
      candidates.push_back(
          {words[i].data(), static_cast<int32_t>(words[i].size())});
    }
    const int64_t count = static_cast<int64_t>(candidates.size());
    for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
      const linalg::SimdKernels& kernels = linalg::KernelsFor(isa);
      const linalg::ErrorSource source = store.error_source();
      const int64_t stride = source.layout.lanes;
      auto run = [&](const linalg::ErrorPlanes* with) {
        std::vector<int64_t> sizes(count, 0);
        std::vector<uint64_t> lanes(count * stride, 0);
        std::vector<uint64_t> max_bits(count, 0);
        linalg::EvaluateCandidatesBlocked(
            kernels, candidates.data(), count, store.words(),
            {source.values, source.layout, with}, sizes.data(), lanes.data(),
            max_bits.data());
        std::vector<double> sums;
        for (int64_t c = 0; c < count; ++c) {
          sums.push_back(
              linalg::RoundLanes(lanes.data() + c * stride, source.layout));
        }
        return std::make_tuple(sizes, sums, max_bits);
      };
      const auto [masked_sizes, masked_sums, masked_max] = run(nullptr);
      const auto [plane_sizes, plane_sums, plane_max] = run(planes);
      const std::string what = info.name + " at " + linalg::IsaName(isa);
      EXPECT_EQ(plane_sizes, masked_sizes) << what;
      EXPECT_TRUE(SameDoubles(plane_sums, masked_sums)) << what;
      EXPECT_EQ(plane_max, masked_max) << what;
    }
  }
}

TEST(ColumnStoreTest, ConcurrentEvaluateOnOverlappingColumns) {
  const int64_t n = 5000;
  const IntMatrix x0 = RandomCodes(13, n, {6, 5, 8, 4});
  const FeatureOffsets offsets = ComputeOffsets(x0);
  const std::vector<double> errors = RandomErrors(14, n);
  // Two sets sharing most columns, none built yet: both Evaluate calls race
  // to fill overlapping columns.
  core::SliceSet first;
  core::SliceSet second;
  for (int32_t a = 1; a <= 6; ++a) {
    for (int32_t b = 1; b <= 5; ++b) {
      first.Add({offsets.ColumnOf(0, a), offsets.ColumnOf(1, b)});
      second.Add({offsets.ColumnOf(0, a), offsets.ColumnOf(2, b)});
    }
  }
  core::SliceLineConfig config;
  config.eval_strategy = core::SliceLineConfig::EvalStrategy::kBitset;
  config.parallel = true;

  const core::SliceEvaluator shared(x0, offsets, errors);
  core::EvalResult got_first;
  core::EvalResult got_second;
  std::thread t1([&] { got_first = shared.Evaluate(first, config).value(); });
  std::thread t2(
      [&] { got_second = shared.Evaluate(second, config).value(); });
  t1.join();
  t2.join();

  core::SliceLineConfig serial = config;
  serial.parallel = false;
  const core::SliceEvaluator reference(x0, offsets, errors);
  const core::EvalResult want_first = reference.Evaluate(first, serial).value();
  const core::EvalResult want_second =
      reference.Evaluate(second, serial).value();
  EXPECT_EQ(got_first.sizes, want_first.sizes);
  EXPECT_EQ(got_first.error_sums, want_first.error_sums);
  EXPECT_EQ(got_first.max_errors, want_first.max_errors);
  EXPECT_EQ(got_second.sizes, want_second.sizes);
  EXPECT_EQ(got_second.error_sums, want_second.error_sums);
  EXPECT_EQ(got_second.max_errors, want_second.max_errors);
}

}  // namespace
}  // namespace sliceline::data
