#ifndef SLICELINE_CORE_SLICELINE_H_
#define SLICELINE_CORE_SLICELINE_H_

#include <vector>

#include "common/status.h"
#include "core/candidates.h"
#include "core/slice.h"
#include "data/encoded_dataset.h"
#include "data/int_matrix.h"

namespace sliceline::core {

/// Runs the SliceLine enumeration (Algorithm 1) over an integer-encoded
/// feature matrix and its row-aligned error vector: one-hot preparation,
/// basic-slice initialization, level-wise candidate generation with the
/// Section 3.2 pruning, vectorized evaluation, and top-K maintenance.
/// This is the native engine; see sliceline_la.h for the linear-algebra
/// engine, which runs the same level loop with CsrMatrix kernels.
StatusOr<SliceLineResult> RunSliceLine(const data::IntMatrix& x0,
                                       const std::vector<double>& errors,
                                       const SliceLineConfig& config);

/// Convenience overload using a prepared dataset's features and errors.
StatusOr<SliceLineResult> RunSliceLine(const data::EncodedDataset& dataset,
                                       const SliceLineConfig& config);

/// Runs the native enumeration against any evaluation backend. This is how
/// the distributed coordinator (dist/) and the stream finder reuse the exact
/// same level-wise enumeration, pruning, and top-K logic.
StatusOr<SliceLineResult> RunSliceLineWithBackend(
    const EvaluatorBackend& evaluator, const SliceLineConfig& config);

/// A level-wise engine's candidate generator, with GeneratePairCandidates'
/// contract: the native prefix/pair join, or the LA engine's S*S^T join.
using CandidateGenerator = decltype(&GeneratePairCandidates);

/// The one level loop of Algorithm 1 (lines 13-19) every level-wise engine
/// runs. It owns level 1 (the backend's basic statistics), governance and
/// the degradation ladder, the candidate cap, checkpoint save and resume,
/// top-K maintenance and the level metrics. Per level, `generate` produces
/// the candidates and `evaluator` their statistics. `engine` ("native",
/// "la") names the metric series (`<engine>/level<L>/...`) and tags the
/// checkpoint, so a run resumes only from its own engine's file.
StatusOr<SliceLineResult> RunLevelWise(const EvaluatorBackend& evaluator,
                                       const SliceLineConfig& config,
                                       const char* engine,
                                       CandidateGenerator generate);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_SLICELINE_H_
