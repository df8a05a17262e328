#ifndef SLICELINE_CORE_CANDIDATES_H_
#define SLICELINE_CORE_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/scoring.h"
#include "core/slice.h"
#include "data/onehot.h"

namespace sliceline::core {

/// Counters describing one level's candidate generation. `pairs` and
/// `pruned` count only pairs that are actually enumerated, i.e. pairs of
/// parents that survive the per-parent bound filter.
struct CandidateGenStats {
  int64_t parents_filtered = 0;  ///< valid parents dropped by their own bound
  int64_t pairs = 0;       ///< compatible pairs of the kept parents joined
  int64_t duplicates = 0;  ///< pair-products merged by deduplication
  int64_t pruned = 0;      ///< joined pairs plus candidates failing Eq. 9
};

/// Generates the level-L slice candidates from the evaluated level-(L-1)
/// slices (Section 4.3): filters valid parents (ss >= sigma, se > 0) and
/// drops those whose own Equation 3 bound already fails, joins compatible
/// pairs (overlap L-2, the S*S^T == L-2 self-join), discards slices with two
/// predicates on one feature, deduplicates via slice identity, aggregates
/// parent bounds as minima over all enumerated parents, and applies the
/// Equation 9 pruning filter
///   ss_ub >= sigma  &&  sc_ub > sc_k  &&  sc_ub >= 0  &&  np == L,
/// with each conjunct controlled by the corresponding SliceLineConfig toggle
/// (the Figure 3 ablation). The bound only falls as parents are added, so
/// the parent filter changes no emitted candidate, bound or np.
///
/// Pairs are never held as a p x p product: each pair that passes its own
/// bound check is appended as one fixed-width record, so memory scales with
/// surviving pairs. The records are sorted once by key and each run of
/// equal keys becomes one candidate. With `config.parallel` the pair loop
/// runs on the global thread pool; the output is identical for any pool
/// size. Generation polls `config.run_context` and returns an empty set
/// once the run is stopped (the caller reports the stop), and it charges
/// the record buffer to the ambient memory budget.
///
/// `prev` / `prev_stats` hold the evaluated slices of level L-1 (for L == 2,
/// the valid basic slices). Returns the surviving candidates in
/// lexicographic column order (in pair order when deduplication is ablated
/// away); their parent bounds are written to `bounds_out` (aligned),
/// generation counters to `gen_stats` if non-null.
SliceSet GeneratePairCandidates(const SliceSet& prev,
                                const EvalResult& prev_stats, int level,
                                const ScoringContext& context, int64_t sigma,
                                double score_threshold,
                                const SliceLineConfig& config,
                                const data::FeatureOffsets& offsets,
                                std::vector<ParentBounds>* bounds_out,
                                CandidateGenStats* gen_stats);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_CANDIDATES_H_
