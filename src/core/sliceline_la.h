#ifndef SLICELINE_CORE_SLICELINE_LA_H_
#define SLICELINE_CORE_SLICELINE_LA_H_

#include <vector>

#include "common/status.h"
#include "core/slice.h"
#include "data/encoded_dataset.h"
#include "data/int_matrix.h"

namespace sliceline::core {

/// Linear-algebra engine of Algorithm 1: the level loop is the shared
/// driver (RunLevelWise in sliceline.h), and the engine supplies the two
/// steps the paper writes as linear algebra, with the CsrMatrix kernels of
/// linalg/ as the paper's DML script uses SystemDS operations:
///  * data preparation and evaluation: one-hot encoding via table(), basic
///    slices via colSums / colSums(X * e) / colMaxs, and blocked slice
///    evaluation via I = ((X S^T) == L) with colSums / colSums(I * e) /
///    colMaxs(I * e) aggregations, error sums exact;
///  * candidate generation: the pair self-join via upper.tri((S S^T) == L-2)
///    and pair merging via selection-matrix products
///    P = ((P1 S) + (P2 S)) != 0.
///
/// Two documented deviations from the literal script:
///  * at level 2 the overlap target is 0, which in a sparse self-join output
///    is an implicit zero, so level-2 pairs are formed directly from all
///    feature-compatible basic-slice pairs (SystemDS relies on a dense
///    (M == 0) comparison there);
///  * slice-ID deduplication uses hashed column-set identity instead of the
///    ND-array index plus frame recoding, which is the same mapping without
///    the overflow workaround.
///
/// The engine prunes each level against the top-K threshold the level
/// starts with, as the paper's script does, so its level counts are the
/// paper's. Results are identical to RunSliceLine (tests assert this); the
/// engines differ only in execution strategy, which is what the paper's
/// "ML systems comparison" (R vs SystemDS) measures. Checkpoints carry the
/// engine name "la". total_seconds includes the one-hot preparation.
StatusOr<SliceLineResult> RunSliceLineLA(const data::IntMatrix& x0,
                                         const std::vector<double>& errors,
                                         const SliceLineConfig& config);

/// Convenience overload using a prepared dataset's features and errors.
StatusOr<SliceLineResult> RunSliceLineLA(const data::EncodedDataset& dataset,
                                         const SliceLineConfig& config);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_SLICELINE_LA_H_
