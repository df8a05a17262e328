// Row partitioning edge cases: degenerate inputs (zero rows, one row, more
// shards than rows) and the disjoint-and-covering contract over a sweep of
// (n, workers) shapes.
#include "dist/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace sliceline::dist {
namespace {

TEST(PartitionEdgeTest, ZeroRowsYieldsOneEmptyShard) {
  // n = 0 must not fan out into `workers` zero-size shards: the evaluator
  // treats every returned range as a unit of work.
  for (int workers : {1, 4, 16}) {
    std::vector<RowRange> parts = PartitionRows(0, workers);
    ASSERT_EQ(parts.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(parts[0].begin, 0);
    EXPECT_EQ(parts[0].end, 0);
    EXPECT_EQ(parts[0].size(), 0);
  }
}

TEST(PartitionEdgeTest, SingleRowYieldsSingleShard) {
  for (int workers : {1, 2, 8}) {
    std::vector<RowRange> parts = PartitionRows(1, workers);
    ASSERT_EQ(parts.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(parts[0].begin, 0);
    EXPECT_EQ(parts[0].end, 1);
  }
}

TEST(PartitionEdgeTest, FewerRowsThanShardsCapsShardCount) {
  // Every shard must hold at least one row; the shard count collapses to n.
  for (int64_t n : {2, 3, 5}) {
    for (int workers : {7, 16, 100}) {
      std::vector<RowRange> parts = PartitionRows(n, workers);
      ASSERT_EQ(parts.size(), static_cast<size_t>(n))
          << "n=" << n << " workers=" << workers;
      for (const RowRange& r : parts) EXPECT_EQ(r.size(), 1);
    }
  }
}

TEST(PartitionEdgeTest, ShardsAreDisjointCoveringAndBalanced) {
  for (int64_t n : {1, 2, 7, 64, 1000, 1001}) {
    for (int workers : {1, 2, 3, 8, 63, 64, 65}) {
      std::vector<RowRange> parts = PartitionRows(n, workers);
      // Contiguous cover of [0, n) with no gaps or overlap.
      int64_t expected_begin = 0;
      for (const RowRange& r : parts) {
        EXPECT_EQ(r.begin, expected_begin) << "n=" << n << " w=" << workers;
        EXPECT_GT(r.size(), 0) << "n=" << n << " w=" << workers;
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " w=" << workers;
      // Near-equal: sizes differ by at most one row.
      int64_t smallest = parts[0].size();
      int64_t largest = parts[0].size();
      for (const RowRange& r : parts) {
        smallest = std::min(smallest, r.size());
        largest = std::max(largest, r.size());
      }
      EXPECT_LE(largest - smallest, 1) << "n=" << n << " w=" << workers;
    }
  }
}

TEST(PartitionEdgeTest, ShardsReassembleTheInput) {
  // Cutting the errors at every range of a partition and concatenating the
  // pieces must reproduce the input exactly, for shapes that include
  // single-row shards and an uneven final shard.
  std::vector<double> errors(11);
  for (size_t i = 0; i < errors.size(); ++i) {
    errors[i] = static_cast<double>(i) * 0.5;
  }
  for (int workers : {1, 3, 4, 11, 20}) {
    std::vector<double> reassembled;
    for (const RowRange& range : PartitionRows(11, workers)) {
      reassembled.insert(reassembled.end(), errors.begin() + range.begin,
                         errors.begin() + range.end);
    }
    EXPECT_EQ(reassembled, errors) << "w=" << workers;
  }
}

}  // namespace
}  // namespace sliceline::dist
