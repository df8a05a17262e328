#ifndef SLICELINE_DIST_PARTITION_H_
#define SLICELINE_DIST_PARTITION_H_

#include <cstdint>
#include <vector>

namespace sliceline::dist {

/// A contiguous row shard [begin, end) of the input.
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// Splits [0, n) into `workers` near-equal contiguous shards (the row
/// partitioning of the paper's data-parallel execution, where X is scanned
/// data-locally on every node).
std::vector<RowRange> PartitionRows(int64_t n, int workers);

}  // namespace sliceline::dist

#endif  // SLICELINE_DIST_PARTITION_H_
