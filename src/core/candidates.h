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

/// Counters describing one level's candidate generation. A pair is two kept
/// parents (valid, own bound passing) joined into one level-L key, counted
/// before the one-predicate-per-feature check:
///   * default path (parent pruning and deduplication on): two prefix
///     siblings. Each key is formed once, so `duplicates` is 0.
///   * ablations: every compatible pair (overlap L-2). A key formed by
///     several pairs counts each extra pair in `duplicates` when
///     deduplication is on.
/// On the default path each pair on two features ends as exactly one of
/// `pair_rejected`, `candidate_rejected` or an emitted candidate.
struct CandidateGenStats {
  int64_t parents_filtered = 0;  ///< valid parents dropped by their own bound
  int64_t pairs = 0;             ///< pairs of kept parents joined
  int64_t duplicates = 0;        ///< pair-products merged by deduplication
  int64_t pair_rejected = 0;     ///< keys whose two-parent bound fails
  /// Keys dropped by the full Equation 9 test: a missing or filtered parent
  /// (np != L) or a failing bound over all parents.
  int64_t candidate_rejected = 0;
  int64_t pruned = 0;  ///< pair_rejected + candidate_rejected
  /// Why generation stopped before the level was complete (kNone when it
  /// finished). A memory stop must be reported from here: the generator
  /// releases its buffers, so the budget is back under its limit by the
  /// time the caller polls the run context.
  StopReason stop = StopReason::kNone;
};

/// Generates the level-L slice candidates from the evaluated level-(L-1)
/// slices (Section 4.3): filters valid parents (ss >= sigma, se > 0) and
/// drops those whose own Equation 3 bound already fails, joins parents that
/// share L-2 columns (the S*S^T == L-2 self-join), discards slices with two
/// predicates on one feature, deduplicates via slice identity, aggregates
/// parent bounds as minima over all parents, and applies the Equation 9
/// pruning filter
///   ss_ub >= sigma  &&  sc_ub > sc_k  &&  sc_ub >= 0  &&  np == L,
/// with each conjunct controlled by the corresponding SliceLineConfig toggle
/// (the Figure 3 ablation). The bound only falls as parents are added, so
/// dropping a parent or a pair whose own bound fails changes no emitted
/// candidate, bound or np.
///
/// Default path (prune_parents && deduplicate): the prefix join (Apriori
/// candidate generation). The kept parents are ordered lexicographically
/// (a sorted `prev` is used as is); parents sharing their first L-2 columns
/// are contiguous siblings, and each pair a < b of them on different
/// features forms the key prefix + last(a) + last(b) exactly once, already
/// in order. A key whose two-parent bound passes finds its other L-2
/// parents among the kept ones with a sibling cursor. Without position
/// skip < L-2 the key is the parent whose first L-2 columns are a's without
/// a[skip] and whose last column is last(b). One binary search per
/// (a, skip), made on a's first key that passes its pair bound, finds that
/// prefix's siblings; last(b) rises with b, so a forward cursor over the
/// siblings' last columns finds every key's parent in O(1) amortized. A
/// missing parent drops the key (np != L), otherwise the full bound over
/// all L minima decides. Each range's fixed-width keys and bounds join the
/// output in one bulk copy. This needs `prev` to hold distinct slices with
/// one predicate per feature, as every level the engines produce does.
///
/// The bound tests return at the first interesting point of Equation 3 that
/// clears the threshold (UpperBoundClears). On the default path a bound
/// whose three minima equal those of a bound known to pass is not tested
/// again: a pair whose minima are one kept parent's own, or a key whose
/// further parents lower no minimum of its passing pair. Every decision,
/// and so every candidate, bound and counter, is the one the full test
/// gives.
///
/// Ablations (prune_parents=false or deduplicate=false), which need keys
/// with missing parents or one candidate per pair: the pair join. Every
/// compatible pair whose bound passes appends one fixed-width record; the
/// records are sorted once by key and each run of equal keys becomes one
/// candidate, or each record one candidate without deduplication.
///
/// With `config.parallel` the parent filter and the loop over outer parents
/// run in contiguous ranges on the global thread pool, concatenated in
/// order, so the output is identical for any pool size. Each range polls `config.run_context` every
/// 64 outer parents and charges its buffers to the calling thread's memory
/// budget as they grow, so a hard memory limit stops a level within one
/// poll stride. A stopped run returns an empty set and records why in
/// `gen_stats->stop`; the caller reports the stop.
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
