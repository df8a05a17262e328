// Tests of the column store: packed column bitmaps against their inverted
// lists, lazy materialization of requested columns only, level-1
// statistics against a row-scan reference, appends continuing both, and
// concurrent fills through the evaluator.
#include "data/column_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "data/generators/generators.h"
#include "linalg/bitmap.h"

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

    // Reference: feature by feature, each column's rows in ascending order,
    // which is the chain order the store promises.
    const size_t l = static_cast<size_t>(offsets.total);
    std::vector<int64_t> sizes(l, 0);
    std::vector<double> sums(l, 0.0);
    std::vector<double> maxes(l, 0.0);
    double total = 0.0;
    for (double e : ds->errors) total += e;
    for (int j = 0; j < offsets.num_features(); ++j) {
      for (int64_t i = 0; i < ds->n(); ++i) {
        const size_t c =
            static_cast<size_t>(offsets.ColumnOf(j, ds->x0.At(i, j)));
        const double e = ds->errors[static_cast<size_t>(i)];
        ++sizes[c];
        sums[c] += e;
        if (e > maxes[c]) maxes[c] = e;
      }
    }
    EXPECT_EQ(store.rows(), ds->n()) << info.name;
    EXPECT_EQ(store.basic_sizes(), sizes) << info.name;
    EXPECT_EQ(store.basic_error_sums(), sums) << info.name;
    EXPECT_EQ(store.basic_max_errors(), maxes) << info.name;
    EXPECT_EQ(store.total_error(), total) << info.name;
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
