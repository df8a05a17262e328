#include "linalg/matrix_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sliceline::linalg {
namespace {

CsrMatrix RandomSparse(Rng& rng, int64_t rows, int64_t cols, double density) {
  CooBuilder builder(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng.NextBool(density)) builder.Add(i, j, rng.NextInt(-5, 5));
    }
  }
  return builder.Build();
}

TEST(MatrixIoTest, StringRoundTrip) {
  Rng rng(3);
  CsrMatrix m = RandomSparse(rng, 12, 9, 0.3);
  auto back = ParseMatrixMarket(ToMatrixMarketString(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(m.Equals(*back));
}

TEST(MatrixIoTest, FileRoundTrip) {
  Rng rng(5);
  CsrMatrix m = RandomSparse(rng, 7, 15, 0.4);
  const std::string path = ::testing::TempDir() + "/m.mtx";
  ASSERT_TRUE(WriteMatrixMarket(m, path).ok());
  auto back = ReadMatrixMarket(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(m.Equals(*back));
  std::remove(path.c_str());
}

TEST(MatrixIoTest, EmptyMatrixRoundTrip) {
  CsrMatrix m = CsrMatrix::Zero(3, 4);
  auto back = ParseMatrixMarket(ToMatrixMarketString(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(m.Equals(*back));
}

TEST(MatrixIoTest, ParsesSymmetric) {
  const std::string mm =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n";
  auto m = ParseMatrixMarket(mm);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->At(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m->At(0, 1), 5.0);  // mirrored
  EXPECT_DOUBLE_EQ(m->At(2, 2), 7.0);  // diagonal not duplicated
  EXPECT_EQ(m->nnz(), 3);
}

TEST(MatrixIoTest, ParsesIntegerFieldAndComments) {
  const std::string mm =
      "%%MatrixMarket matrix coordinate integer general\n"
      "% comment line\n"
      "2 2 1\n"
      "% another comment\n"
      "1 2 3\n";
  auto m = ParseMatrixMarket(mm);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->At(0, 1), 3.0);
}

TEST(MatrixIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseMatrixMarket("").ok());
  EXPECT_FALSE(ParseMatrixMarket("not a banner\n1 1 0\n").ok());
  EXPECT_FALSE(
      ParseMatrixMarket("%%MatrixMarket matrix array real general\n").ok());
  EXPECT_FALSE(ParseMatrixMarket(
                   "%%MatrixMarket matrix coordinate complex general\n"
                   "1 1 1\n1 1 1 0\n")
                   .ok());
  // Out-of-bounds coordinate.
  EXPECT_FALSE(ParseMatrixMarket(
                   "%%MatrixMarket matrix coordinate real general\n"
                   "2 2 1\n3 1 1.0\n")
                   .ok());
  // Entry count mismatch.
  EXPECT_FALSE(ParseMatrixMarket(
                   "%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1.0\n")
                   .ok());
}

TEST(MatrixIoTest, RowsPastTheCallersBoundAreAnErrorBeforeAnyAllocation) {
  // 2^36 rows: row pointers sized by the header would need 512 GiB.
  const std::string huge =
      "%%MatrixMarket matrix coordinate real general\n68719476736 1 0\n";
  EXPECT_EQ(ParseMatrixMarket(huge, /*max_rows=*/1000).status().code(),
            StatusCode::kInvalidArgument);
  const std::string small =
      "%%MatrixMarket matrix coordinate real general\n3 2 1\n3 2 4.0\n";
  EXPECT_EQ(ParseMatrixMarket(small, /*max_rows=*/2).status().code(),
            StatusCode::kInvalidArgument);
  const auto exact = ParseMatrixMarket(small, /*max_rows=*/3);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->At(2, 1), 4.0);
}

TEST(MatrixIoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadMatrixMarket("/no/such/file.mtx").ok());
}

}  // namespace
}  // namespace sliceline::linalg
