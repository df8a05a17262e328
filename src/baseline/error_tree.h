#ifndef SLICELINE_BASELINE_ERROR_TREE_H_
#define SLICELINE_BASELINE_ERROR_TREE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/slice.h"
#include "data/int_matrix.h"

namespace sliceline::baseline {

/// Configuration of the decision-tree baseline.
struct ErrorTreeConfig {
  int max_depth = 3;        ///< maximum predicates per leaf slice
  int64_t min_support = 0;  ///< 0 = max(32, ceil(n/100))
  /// Minimum relative improvement in weighted error variance for a split.
  double min_gain = 1e-3;
  int k = 4;                ///< leaves reported (highest mean error first)
};

/// Result: the worst leaves as slices plus tree statistics. Leaf row sets
/// partition the data (non-overlapping by construction); the reported
/// predicate lists are the positive path conjunctions with the negated
/// "rest" branches elided, and stats describe the actual leaf rows.
struct ErrorTreeResult {
  std::vector<core::Slice> slices;  ///< stats.score = mean leaf error
  int nodes = 0;
  int leaves = 0;
  double total_seconds = 0.0;
};

/// Decision-tree slice baseline (the non-overlapping alternative the
/// SliceFinder work proposes and the paper contrasts against): greedily
/// grows a tree that partitions the data by equality predicates, choosing
/// at each node the (feature = value) split that best separates high-error
/// from low-error rows (variance reduction on e). Leaves with the highest
/// mean error become the reported slices. Because the leaves partition X,
/// overlapping problem slices -- SliceLine's specialty -- cannot be
/// expressed; error_tree_test.cc::CannotExpressOverlappingSlices shows the
/// gap.
StatusOr<ErrorTreeResult> RunErrorTree(const data::IntMatrix& x0,
                                       const std::vector<double>& errors,
                                       const ErrorTreeConfig& config);

}  // namespace sliceline::baseline

#endif  // SLICELINE_BASELINE_ERROR_TREE_H_
