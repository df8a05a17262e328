#include "data/generators/generators.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "data/generators/planted_slices.h"
#include "data/onehot.h"

namespace sliceline::data {

// gtest names each parameter with its printed value, and gtest_discover_tests
// copies that into the ctest name. Without this overload a DatasetInfo prints
// as raw bytes, std::string heap pointers included, so the test names would
// change with every build.
void PrintTo(const DatasetInfo& info, std::ostream* os) { *os << info.name; }

namespace {

class GeneratorShapeTest : public ::testing::TestWithParam<DatasetInfo> {};

TEST_P(GeneratorShapeTest, MatchesTableOneShape) {
  const DatasetInfo& info = GetParam();
  DatasetOptions opts;
  opts.rows = std::min<int64_t>(info.default_rows, 4000);
  auto ds = MakeDatasetByName(info.name, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->name, info.name);
  EXPECT_EQ(ds->n(), opts.rows);
  EXPECT_EQ(ds->m(), info.columns);
  EXPECT_EQ(static_cast<int64_t>(ds->y.size()), ds->n());
  EXPECT_EQ(static_cast<int64_t>(ds->errors.size()), ds->n());
  // Every code is in 1..domain and errors are non-negative.
  for (int64_t i = 0; i < ds->n(); ++i) {
    EXPECT_GE(ds->errors[i], 0.0);
    for (int64_t j = 0; j < ds->m(); ++j) EXPECT_GE(ds->x0.At(i, j), 1);
  }
}

TEST_P(GeneratorShapeTest, Deterministic) {
  const DatasetInfo& info = GetParam();
  DatasetOptions opts;
  opts.rows = 1000;
  opts.seed = 99;
  auto a = MakeDatasetByName(info.name, opts);
  auto b = MakeDatasetByName(info.name, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->x0.data(), b->x0.data());
  EXPECT_EQ(a->errors, b->errors);
  EXPECT_EQ(a->y, b->y);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, GeneratorShapeTest, ::testing::ValuesIn(ListDatasets()),
    [](const ::testing::TestParamInfo<DatasetInfo>& info) {
      return info.param.name;
    });

TEST(GeneratorTest, FullWidthMatchesPaperForFixedDomains) {
  // Domains are data-independent by construction for these generators, so
  // the one-hot width must equal Table 1's l even at reduced row counts.
  DatasetOptions opts;
  opts.rows = 4000;
  EXPECT_EQ(MakeAdult(opts).OneHotWidth(), 162);
  EXPECT_EQ(MakeCovtype(opts).OneHotWidth(), 188);
  EXPECT_EQ(MakeUsCensus(opts).OneHotWidth(), 378);
  EXPECT_EQ(MakeSalaries(DatasetOptions{397, 42}).OneHotWidth(), 27);
}

TEST(GeneratorTest, Kdd98WidthMatchesPaper) {
  DatasetOptions opts;
  opts.rows = 3000;
  EncodedDataset ds = MakeKdd98(opts);
  EXPECT_EQ(ds.m(), 469);
  // Sum of declared domains (codes may not all be observed at small n, so
  // compare against the declared structure: 360*10 + 80*20 + 20*50 + 9*242).
  EXPECT_EQ(360 * 10 + 80 * 20 + 20 * 50 + 9 * 242, 8378);
}

TEST(GeneratorTest, CriteoIsUltraSparseAfterOneHot) {
  DatasetOptions opts;
  opts.rows = 20000;
  EncodedDataset ds = MakeCriteo(opts);
  const int64_t l = ds.OneHotWidth();
  // One-hot density is m / l; Criteo-like data must be well under 1%.
  const double density = static_cast<double>(ds.m()) / static_cast<double>(l);
  EXPECT_LT(density, 0.01);
  // Only a small fraction of one-hot columns should clear sigma = n/100.
  const FeatureOffsets off = ComputeOffsets(ds.x0);
  std::vector<int64_t> counts(static_cast<size_t>(off.total), 0);
  for (int64_t i = 0; i < ds.n(); ++i) {
    for (int64_t j = 0; j < ds.m(); ++j) {
      ++counts[off.ColumnOf(static_cast<int>(j), ds.x0.At(i, j))];
    }
  }
  const int64_t sigma = ds.n() / 100;
  int64_t qualifying = 0;
  for (int64_t c : counts) qualifying += c >= sigma;
  EXPECT_LT(qualifying, off.total / 20);
  EXPECT_GT(qualifying, 0);
}

TEST(GeneratorTest, PlantedSlicesHaveElevatedError) {
  DatasetOptions opts;
  opts.rows = 20000;
  EncodedDataset ds = MakeAdult(opts);
  ASSERT_FALSE(ds.planted.empty());
  double total = 0.0;
  for (double e : ds.errors) total += e;
  const double avg = total / static_cast<double>(ds.n());
  // The first planted slice (2 predicates, decent support) must show a
  // higher mean error than the dataset average.
  const PlantedSlice& slice = ds.planted[0];
  double slice_sum = 0.0;
  int64_t slice_count = 0;
  for (int64_t i = 0; i < ds.n(); ++i) {
    if (RowMatchesPlanted(ds.x0, i, slice)) {
      slice_sum += ds.errors[i];
      ++slice_count;
    }
  }
  ASSERT_GT(slice_count, 0);
  EXPECT_GT(slice_sum / static_cast<double>(slice_count), 1.5 * avg);
}

TEST(GeneratorTest, UnknownNameFails) {
  EXPECT_FALSE(MakeDatasetByName("nope").ok());
}

TEST(GeneratorTest, ListDatasetsMatchesPaperTable1) {
  const std::vector<DatasetInfo> infos = ListDatasets();
  ASSERT_EQ(infos.size(), 6u);
  EXPECT_EQ(infos[1].name, "adult");
  EXPECT_EQ(infos[1].paper_rows, 32561);
  EXPECT_EQ(infos[1].paper_onehot, 162);
  EXPECT_EQ(infos[5].paper_rows, 192215183);
  EXPECT_EQ(infos[5].paper_onehot, 75573541);
}

TEST(ReplicateTest, RowAndColumnReplication) {
  DatasetOptions opts;
  opts.rows = 400;
  EncodedDataset ds = MakeSalaries(opts);
  EncodedDataset rep = Replicate(ds, 2, 2);
  EXPECT_EQ(rep.n(), 2 * ds.n());
  EXPECT_EQ(rep.m(), 2 * ds.m());
  EXPECT_EQ(rep.errors.size(), 2 * ds.errors.size());
  // Column copies are identical (perfect correlation).
  for (int64_t i = 0; i < rep.n(); ++i) {
    for (int64_t j = 0; j < ds.m(); ++j) {
      EXPECT_EQ(rep.x0.At(i, j), rep.x0.At(i, j + ds.m()));
    }
  }
  // Row copies replicate the original rows.
  for (int64_t i = 0; i < ds.n(); ++i) {
    for (int64_t j = 0; j < ds.m(); ++j) {
      EXPECT_EQ(rep.x0.At(ds.n() + i, j), ds.x0.At(i, j));
    }
  }
}

TEST(ErrorSimTest, SeverityScalesClassificationErrorRate) {
  EncodedDataset ds;
  ds.task = Task::kClassification;
  ds.x0 = IntMatrix(10000, 1);
  for (int64_t i = 0; i < ds.n(); ++i) ds.x0.At(i, 0) = 1 + (i % 2);
  ds.planted.push_back(PlantedSlice{{{0, 2}}, 1.5});
  Rng rng(5);
  ErrorSimOptions opts;
  opts.base_rate = 0.1;
  opts.planted_rate = 0.4;
  std::vector<double> errors = SimulateModelErrors(ds, opts, rng);
  double base_sum = 0;
  double planted_sum = 0;
  for (int64_t i = 0; i < ds.n(); ++i) {
    (ds.x0.At(i, 0) == 2 ? planted_sum : base_sum) += errors[i];
  }
  EXPECT_NEAR(base_sum / 5000.0, 0.1, 0.03);
  EXPECT_NEAR(planted_sum / 5000.0, 0.6, 0.05);
}

}  // namespace
}  // namespace sliceline::data
