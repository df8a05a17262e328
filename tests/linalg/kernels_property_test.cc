// Randomized algebraic-identity property tests over the sparse kernels:
// each identity must hold exactly (all values are small integers, so
// floating-point arithmetic is exact) across random shapes and densities.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/kernels.h"

namespace sliceline::linalg {
namespace {

CsrMatrix RandomSparse(Rng& rng, int64_t rows, int64_t cols, double density) {
  CooBuilder builder(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.NextBool(density)) builder.Add(i, j, rng.NextInt(-4, 4));
    }
  }
  return builder.Build();
}

class KernelIdentityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam() * 7919 + 13};
};

TEST_P(KernelIdentityTest, TransposeIsInvolution) {
  CsrMatrix a = RandomSparse(rng_, 9, 14, 0.3);
  EXPECT_TRUE(Transpose(Transpose(a)).Equals(a));
}

TEST_P(KernelIdentityTest, TransposeDistributesOverAdd) {
  CsrMatrix a = RandomSparse(rng_, 8, 11, 0.3);
  CsrMatrix b = RandomSparse(rng_, 8, 11, 0.3);
  EXPECT_TRUE(Transpose(Add(a, b)).Equals(Add(Transpose(a), Transpose(b))));
}

TEST_P(KernelIdentityTest, AddIsCommutative) {
  CsrMatrix a = RandomSparse(rng_, 10, 7, 0.4);
  CsrMatrix b = RandomSparse(rng_, 10, 7, 0.4);
  EXPECT_TRUE(Add(a, b).Equals(Add(b, a)));
}

TEST_P(KernelIdentityTest, MatVecAgreesWithMultiply) {
  // (A * B) x == A * (B x) for a random vector x.
  CsrMatrix a = RandomSparse(rng_, 6, 9, 0.35);
  CsrMatrix b = RandomSparse(rng_, 9, 5, 0.35);
  std::vector<double> x(5);
  for (auto& v : x) v = rng_.NextInt(-3, 3);
  std::vector<double> lhs = MatVec(Multiply(a, b), x);
  std::vector<double> rhs = MatVec(a, MatVec(b, x));
  ASSERT_EQ(lhs.size(), rhs.size());
  for (size_t i = 0; i < lhs.size(); ++i) EXPECT_DOUBLE_EQ(lhs[i], rhs[i]);
}

TEST_P(KernelIdentityTest, TransposeMatVecIsMatVecOfTranspose) {
  CsrMatrix a = RandomSparse(rng_, 12, 6, 0.3);
  std::vector<double> x(12);
  for (auto& v : x) v = rng_.NextInt(-3, 3);
  std::vector<double> lhs = TransposeMatVec(a, x);
  std::vector<double> rhs = MatVec(Transpose(a), x);
  for (size_t i = 0; i < lhs.size(); ++i) EXPECT_DOUBLE_EQ(lhs[i], rhs[i]);
}

TEST_P(KernelIdentityTest, ColSumsOfRbindAdds) {
  CsrMatrix a = RandomSparse(rng_, 5, 8, 0.4);
  CsrMatrix b = RandomSparse(rng_, 7, 8, 0.4);
  // rbind(a, b) built in the test: the identity checks ColSums.
  CooBuilder builder(a.rows() + b.rows(), 8);
  for (int64_t r = 0; r < a.rows() + b.rows(); ++r) {
    const CsrMatrix& m = r < a.rows() ? a : b;
    const int64_t mr = r < a.rows() ? r : r - a.rows();
    for (int64_t k = 0; k < m.RowNnz(mr); ++k) {
      builder.Add(r, m.RowCols(mr)[k], m.RowVals(mr)[k]);
    }
  }
  std::vector<double> stacked = ColSums(builder.Build());
  std::vector<double> sa = ColSums(a);
  std::vector<double> sb = ColSums(b);
  for (size_t j = 0; j < stacked.size(); ++j) {
    EXPECT_DOUBLE_EQ(stacked[j], sa[j] + sb[j]);
  }
}

TEST_P(KernelIdentityTest, RowSumsEqualColSumsOfTranspose) {
  CsrMatrix a = RandomSparse(rng_, 10, 10, 0.25);
  std::vector<double> row_sums(static_cast<size_t>(a.rows()), 0.0);
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t k = 0; k < a.RowNnz(r); ++k) row_sums[r] += a.RowVals(r)[k];
  }
  EXPECT_EQ(row_sums, ColSums(Transpose(a)));
}

TEST_P(KernelIdentityTest, BinarizeIsIdempotent) {
  CsrMatrix a = RandomSparse(rng_, 9, 9, 0.3);
  CsrMatrix once = Binarize(a);
  EXPECT_TRUE(Binarize(once).Equals(once));
}

TEST_P(KernelIdentityTest, ScaleRowsByOnesIsIdentity) {
  CsrMatrix a = RandomSparse(rng_, 8, 6, 0.4);
  std::vector<double> ones(8, 1.0);
  EXPECT_TRUE(ScaleRows(a, ones).Equals(a));
}

TEST_P(KernelIdentityTest, SelectAllColumnsIsIdentity) {
  CsrMatrix a = RandomSparse(rng_, 7, 9, 0.4);
  std::vector<int64_t> all(9);
  for (int64_t j = 0; j < 9; ++j) all[j] = j;
  EXPECT_TRUE(SelectColumns(a, all).Equals(a));
}

TEST_P(KernelIdentityTest, GatherAllRowsIsIdentity) {
  CsrMatrix a = RandomSparse(rng_, 11, 4, 0.4);
  std::vector<int64_t> all(11);
  for (int64_t i = 0; i < 11; ++i) all[i] = i;
  EXPECT_TRUE(GatherRows(a, all).Equals(a));
}

TEST_P(KernelIdentityTest, RemoveEmptyThenGatherRestores) {
  CsrMatrix a = RandomSparse(rng_, 12, 5, 0.15);
  // removeEmpty(margin="rows") as a gather of the non-empty rows.
  std::vector<int64_t> kept;
  for (int64_t r = 0; r < a.rows(); ++r) {
    if (a.RowNnz(r) > 0) kept.push_back(r);
  }
  const CsrMatrix compact = GatherRows(a, kept);
  // Scatter the compact rows back: every kept row matches the original.
  for (size_t i = 0; i < kept.size(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(compact.At(static_cast<int64_t>(i), j),
                       a.At(kept[i], j));
    }
  }
  EXPECT_EQ(compact.nnz(), a.nnz());  // the dropped rows were empty
}

TEST_P(KernelIdentityTest, TableMatchesCooBuilder) {
  const int64_t n = 20;
  std::vector<int64_t> rix;
  std::vector<int64_t> cix;
  std::vector<double> w;
  CooBuilder builder(n, n);
  for (int k = 0; k < 60; ++k) {
    const int64_t r = rng_.NextInt(0, n - 1);
    const int64_t c = rng_.NextInt(0, n - 1);
    const double v = rng_.NextInt(1, 3);
    rix.push_back(r);
    cix.push_back(c);
    w.push_back(v);
    builder.Add(r, c, v);
  }
  EXPECT_TRUE(Table(rix, cix, w, n, n).Equals(builder.Build()));
}

TEST_P(KernelIdentityTest, UpperTriEqualsMatchesBruteForce) {
  CsrMatrix a = RandomSparse(rng_, 10, 10, 0.3);
  auto entries = UpperTriEquals(a, 2.0);
  size_t idx = 0;
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = r + 1; c < 10; ++c) {
      if (a.At(r, c) == 2.0) {
        ASSERT_LT(idx, entries.size());
        EXPECT_EQ(entries[idx].first, r);
        EXPECT_EQ(entries[idx].second, c);
        ++idx;
      }
    }
  }
  EXPECT_EQ(idx, entries.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelIdentityTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace sliceline::linalg
