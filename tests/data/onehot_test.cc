#include "data/onehot.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/preprocess.h"
#include "linalg/kernels.h"

namespace sliceline::data {
namespace {

IntMatrix SmallX0() {
  // Features: A with domain 2, B with domain 3.
  IntMatrix x0(4, 2);
  const int32_t values[4][2] = {{1, 1}, {2, 3}, {1, 2}, {2, 2}};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j) x0.At(i, j) = values[i][j];
  return x0;
}

TEST(OffsetsTest, ComputeOffsets) {
  FeatureOffsets off = ComputeOffsets(SmallX0());
  EXPECT_EQ(off.num_features(), 2);
  EXPECT_EQ(off.fdom, (std::vector<int32_t>{2, 3}));
  EXPECT_EQ(off.fb, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(off.fe, (std::vector<int64_t>{2, 5}));
  EXPECT_EQ(off.total, 5);
}

TEST(OffsetsTest, CheckedOffsetsRejectsTheFirstCodeBelowOne) {
  IntMatrix x0 = SmallX0();
  const StatusOr<FeatureOffsets> checked = CheckedOffsets(x0);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked->fdom, ComputeOffsets(x0).fdom);
  // The first cell below 1 in row-major order.
  x0.At(3, 0) = -2;
  x0.At(2, 1) = 0;
  EXPECT_EQ(CheckedOffsets(x0).status(), CodeBelowOne(2, 1, 0));
}

TEST(OffsetsTest, ColumnLookups) {
  FeatureOffsets off = ComputeOffsets(SmallX0());
  EXPECT_EQ(off.FeatureOfColumn(0), 0);
  EXPECT_EQ(off.FeatureOfColumn(1), 0);
  EXPECT_EQ(off.FeatureOfColumn(2), 1);
  EXPECT_EQ(off.FeatureOfColumn(4), 1);
  EXPECT_EQ(off.CodeOfColumn(1), 2);
  EXPECT_EQ(off.CodeOfColumn(4), 3);
  EXPECT_EQ(off.ColumnOf(1, 2), 3);
  EXPECT_EQ(off.ColumnOf(0, 1), 0);
}

TEST(OneHotTest, EncodesRowsWithOneEntryPerFeature) {
  IntMatrix x0 = SmallX0();
  FeatureOffsets off = ComputeOffsets(x0);
  linalg::CsrMatrix x = OneHotEncode(x0, off);
  EXPECT_EQ(x.rows(), 4);
  EXPECT_EQ(x.cols(), 5);
  EXPECT_EQ(x.nnz(), 8);  // n * m
  // Row 1 = {A=2, B=3} -> columns 1 and 4.
  EXPECT_DOUBLE_EQ(x.At(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(x.At(1, 4), 1.0);
  EXPECT_DOUBLE_EQ(x.At(1, 0), 0.0);
}

TEST(OneHotTest, MatchesTableFormulation) {
  Rng rng(31);
  IntMatrix x0(50, 4);
  for (int64_t i = 0; i < 50; ++i)
    for (int j = 0; j < 4; ++j)
      x0.At(i, j) = static_cast<int32_t>(rng.NextInt(1, 2 + j));
  FeatureOffsets off = ComputeOffsets(x0);
  EXPECT_TRUE(OneHotEncode(x0, off).Equals(OneHotEncodeViaTable(x0, off)));
}

TEST(OneHotTest, ColSumsArePerValueCounts) {
  IntMatrix x0 = SmallX0();
  FeatureOffsets off = ComputeOffsets(x0);
  std::vector<double> counts = linalg::ColSums(OneHotEncode(x0, off));
  EXPECT_DOUBLE_EQ(counts[0], 2);  // A=1 twice
  EXPECT_DOUBLE_EQ(counts[1], 2);  // A=2 twice
  EXPECT_DOUBLE_EQ(counts[2], 1);  // B=1 once
  EXPECT_DOUBLE_EQ(counts[3], 2);  // B=2 twice
  EXPECT_DOUBLE_EQ(counts[4], 1);  // B=3 once
}

TEST(IntMatrixTest, ReplicateRows) {
  IntMatrix x0 = SmallX0();
  IntMatrix rep = x0.ReplicateRows(3);
  EXPECT_EQ(rep.rows(), 12);
  for (int64_t i = 0; i < 12; ++i)
    for (int j = 0; j < 2; ++j) EXPECT_EQ(rep.At(i, j), x0.At(i % 4, j));
}

TEST(PreprocessTest, EncodesFrameToDataset) {
  Frame frame;
  ASSERT_TRUE(frame
                  .AddColumn(Column("cat", std::vector<std::string>{
                                               "a", "b", "a", "c"}))
                  .ok());
  ASSERT_TRUE(
      frame.AddColumn(Column("num", std::vector<double>{0, 5, 10, 2})).ok());
  ASSERT_TRUE(
      frame.AddColumn(Column("id", std::vector<double>{1, 2, 3, 4})).ok());
  ASSERT_TRUE(
      frame.AddColumn(Column("y", std::vector<double>{1, 2, 3, 4})).ok());
  PreprocessOptions opts;
  opts.label_column = "y";
  opts.task = Task::kRegression;
  opts.num_bins = 5;
  opts.drop_columns = {"id"};
  auto ds = Preprocess(frame, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->m(), 2);
  EXPECT_EQ(ds->n(), 4);
  EXPECT_EQ(ds->x0.At(0, 0), 1);  // "a"
  EXPECT_EQ(ds->x0.At(3, 0), 3);  // "c"
  EXPECT_EQ(ds->y[2], 3.0);
  EXPECT_EQ(ds->feature_names, (std::vector<std::string>{"cat", "num"}));
}

TEST(PreprocessTest, ClassificationLabelRecoded) {
  Frame frame;
  ASSERT_TRUE(
      frame.AddColumn(Column("f", std::vector<double>{1, 2, 3})).ok());
  ASSERT_TRUE(frame
                  .AddColumn(Column("label", std::vector<std::string>{
                                                 "no", "yes", "no"}))
                  .ok());
  PreprocessOptions opts;
  opts.label_column = "label";
  opts.task = Task::kClassification;
  auto ds = Preprocess(frame, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_classes, 2);
  EXPECT_EQ(ds->y, (std::vector<double>{0, 1, 0}));
}

TEST(PreprocessTest, MissingLabelColumnFails) {
  Frame frame;
  ASSERT_TRUE(frame.AddColumn(Column("f", std::vector<double>{1})).ok());
  PreprocessOptions opts;
  opts.label_column = "nope";
  EXPECT_FALSE(Preprocess(frame, opts).ok());
}

TEST(PreprocessTest, NoFeaturesLeftFails) {
  Frame frame;
  ASSERT_TRUE(frame.AddColumn(Column("y", std::vector<double>{1})).ok());
  PreprocessOptions opts;
  opts.label_column = "y";
  EXPECT_FALSE(Preprocess(frame, opts).ok());
}

}  // namespace
}  // namespace sliceline::data
