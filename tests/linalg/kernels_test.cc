#include "linalg/kernels.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sliceline::linalg {
namespace {

/// Random sparse matrix with the given density; negative values allowed.
CsrMatrix RandomSparse(Rng& rng, int64_t rows, int64_t cols, double density) {
  CooBuilder builder(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.NextBool(density)) builder.Add(i, j, rng.NextInt(-4, 5));
    }
  }
  return builder.Build();
}

TEST(ReduceKernelsTest, ColSumsMatchesDense) {
  Rng rng(1);
  CsrMatrix m = RandomSparse(rng, 20, 9, 0.3);
  std::vector<double> sums = ColSums(m);
  DenseMatrix d = m.ToDense();
  for (int64_t j = 0; j < m.cols(); ++j) {
    double expect = 0;
    for (int64_t i = 0; i < m.rows(); ++i) expect += d.At(i, j);
    EXPECT_DOUBLE_EQ(sums[j], expect) << "col " << j;
  }
}

TEST(ReduceKernelsTest, ColMaxsIncludesImplicitZeros) {
  // Column 0 has only negative entries but also implicit zeros -> max 0.
  CooBuilder builder(3, 2);
  builder.Add(0, 0, -2.0);
  builder.Add(0, 1, 5.0);
  builder.Add(1, 1, 7.0);
  builder.Add(2, 1, -1.0);
  CsrMatrix m = builder.Build();
  std::vector<double> maxs = ColMaxs(m);
  EXPECT_DOUBLE_EQ(maxs[0], 0.0);   // implicit zeros dominate -2
  EXPECT_DOUBLE_EQ(maxs[1], 7.0);   // full column, true max
}

TEST(ReduceKernelsTest, ColMaxsFullNegativeColumn) {
  CooBuilder builder(2, 1);
  builder.Add(0, 0, -2.0);
  builder.Add(1, 0, -5.0);
  CsrMatrix m = builder.Build();
  EXPECT_DOUBLE_EQ(ColMaxs(m)[0], -2.0);  // no implicit zeros
}

TEST(MatVecTest, MatchesDense) {
  Rng rng(3);
  CsrMatrix m = RandomSparse(rng, 12, 7, 0.35);
  std::vector<double> x(7);
  for (auto& v : x) v = rng.NextGaussian();
  std::vector<double> y = MatVec(m, x);
  std::vector<double> expect = m.ToDense().MatVec(x);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], expect[i], 1e-12);
}

TEST(MatVecTest, TransposeMatchesDense) {
  Rng rng(4);
  CsrMatrix m = RandomSparse(rng, 12, 7, 0.35);
  std::vector<double> x(12);
  for (auto& v : x) v = rng.NextGaussian();
  std::vector<double> y = TransposeMatVec(m, x);
  std::vector<double> expect = m.ToDense().TransposeMatVec(x);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], expect[i], 1e-12);
}

TEST(ElementwiseTest, FilterEquals) {
  CooBuilder builder(2, 3);
  builder.Add(0, 0, 2.0);
  builder.Add(0, 1, 3.0);
  builder.Add(1, 2, 2.0);
  CsrMatrix f = FilterEquals(builder.Build(), 2.0);
  EXPECT_EQ(f.nnz(), 2);
  EXPECT_DOUBLE_EQ(f.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(f.At(1, 2), 1.0);
}

TEST(ElementwiseTest, ScaleRowsDropsZeroScale) {
  CooBuilder builder(3, 2);
  builder.Add(0, 0, 2.0);
  builder.Add(1, 1, 3.0);
  builder.Add(2, 0, 4.0);
  CsrMatrix s = ScaleRows(builder.Build(), {2.0, 0.0, -1.0});
  EXPECT_DOUBLE_EQ(s.At(0, 0), 4.0);
  EXPECT_EQ(s.RowNnz(1), 0);
  EXPECT_DOUBLE_EQ(s.At(2, 0), -4.0);
}

TEST(ElementwiseTest, AddMatchesDense) {
  Rng rng(5);
  CsrMatrix a = RandomSparse(rng, 10, 6, 0.3);
  CsrMatrix b = RandomSparse(rng, 10, 6, 0.3);
  CsrMatrix c = Add(a, b);
  DenseMatrix expect = a.ToDense();
  for (int64_t i = 0; i < 10; ++i)
    for (int64_t j = 0; j < 6; ++j) expect.At(i, j) += b.ToDense().At(i, j);
  EXPECT_DOUBLE_EQ(c.ToDense().MaxAbsDiff(expect), 0.0);
}

TEST(ElementwiseTest, AddCancellationDropsEntries) {
  CooBuilder ba(1, 2);
  ba.Add(0, 0, 1.0);
  CooBuilder bb(1, 2);
  bb.Add(0, 0, -1.0);
  bb.Add(0, 1, 2.0);
  CsrMatrix c = Add(ba.Build(), bb.Build());
  EXPECT_EQ(c.nnz(), 1);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 2.0);
}

TEST(ElementwiseTest, Binarize) {
  CooBuilder builder(1, 3);
  builder.Add(0, 0, 5.0);
  builder.Add(0, 2, -3.0);
  CsrMatrix b = Binarize(builder.Build());
  EXPECT_DOUBLE_EQ(b.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(b.At(0, 2), 1.0);
}

TEST(ElementwiseTest, UpperTriEquals) {
  CooBuilder builder(3, 3);
  builder.Add(0, 1, 2.0);
  builder.Add(1, 0, 2.0);  // lower triangle, excluded
  builder.Add(0, 0, 2.0);  // diagonal, excluded
  builder.Add(1, 2, 3.0);  // wrong value
  builder.Add(0, 2, 2.0);
  auto entries = UpperTriEquals(builder.Build(), 2.0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<int64_t, int64_t>{0, 1}));
  EXPECT_EQ(entries[1], (std::pair<int64_t, int64_t>{0, 2}));
}

TEST(SelectTest, SelectRowsAndGatherRows) {
  Rng rng(6);
  CsrMatrix m = RandomSparse(rng, 8, 5, 0.4);
  CsrMatrix sel = SelectRows(m, {1, 0, 1, 0, 0, 1, 0, 0});
  EXPECT_EQ(sel.rows(), 3);
  CsrMatrix gathered = GatherRows(m, {5, 2, 0});
  EXPECT_EQ(gathered.rows(), 3);
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(gathered.At(0, j), m.At(5, j));
    EXPECT_DOUBLE_EQ(gathered.At(1, j), m.At(2, j));
    EXPECT_DOUBLE_EQ(gathered.At(2, j), m.At(0, j));
  }
}

TEST(SelectTest, GatherRowsAllowsDuplicates) {
  CooBuilder builder(2, 2);
  builder.Add(0, 1, 3.0);
  CsrMatrix g = GatherRows(builder.Build(), {0, 0});
  EXPECT_EQ(g.rows(), 2);
  EXPECT_DOUBLE_EQ(g.At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.At(1, 1), 3.0);
}

TEST(SelectTest, SelectColumnsCompacts) {
  Rng rng(7);
  CsrMatrix m = RandomSparse(rng, 6, 8, 0.5);
  CsrMatrix sel = SelectColumns(m, {1, 4, 7});
  EXPECT_EQ(sel.cols(), 3);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(sel.At(i, 0), m.At(i, 1));
    EXPECT_DOUBLE_EQ(sel.At(i, 1), m.At(i, 4));
    EXPECT_DOUBLE_EQ(sel.At(i, 2), m.At(i, 7));
  }
}

TEST(SelectTest, SliceRowRange) {
  Rng rng(9);
  CsrMatrix m = RandomSparse(rng, 10, 3, 0.5);
  CsrMatrix s = SliceRowRange(m, 3, 7);
  EXPECT_EQ(s.rows(), 4);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(s.At(i, j), m.At(3 + i, j));
}

TEST(ConstructTest, TableCountsPairs) {
  CsrMatrix t = Table({0, 0, 1, 0}, {1, 1, 2, 0}, 2, 3);
  EXPECT_DOUBLE_EQ(t.At(0, 1), 2.0);  // duplicate position summed
  EXPECT_DOUBLE_EQ(t.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.At(1, 2), 1.0);
}

TEST(ConstructTest, TableWithWeights) {
  CsrMatrix t = Table({0, 0}, {1, 1}, {0.5, 0.25}, 1, 2);
  EXPECT_DOUBLE_EQ(t.At(0, 1), 0.75);
}

}  // namespace
}  // namespace sliceline::linalg
