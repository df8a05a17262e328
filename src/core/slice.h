#ifndef SLICELINE_CORE_SLICE_H_
#define SLICELINE_CORE_SLICE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "data/encoded_dataset.h"
#include "data/onehot.h"

namespace sliceline::core {

/// Statistics of an evaluated slice (the columns of the paper's R matrix:
/// score, total error, maximum tuple error, size).
struct SliceStats {
  double score = 0.0;
  double error_sum = 0.0;  ///< se: sum of tuple errors in the slice
  double max_error = 0.0;  ///< sm: maximum tuple error in the slice
  int64_t size = 0;        ///< |S|: number of matching rows
};

/// A decoded slice: conjunction of (feature index, 1-based code) predicates,
/// sorted by feature index, plus its statistics. This mirrors one row of the
/// paper's TS (integer-encoded, zeros = free features) and TR outputs.
struct Slice {
  std::vector<std::pair<int, int32_t>> predicates;
  SliceStats stats;

  int level() const { return static_cast<int>(predicates.size()); }

  /// Renders e.g. "sex=2 ∧ degree=16 [score=0.35 size=120 err=57.0]";
  /// feature names are optional.
  std::string ToString(const std::vector<std::string>& feature_names = {}) const;

  /// True if `row` of x0 satisfies all predicates.
  bool Matches(const data::IntMatrix& x0, int64_t row) const;
};

/// Parameters of the slice-finding problem and of the enumeration engine.
struct SliceLineConfig {
  // -- problem parameters (Definition 2) --
  int k = 4;               ///< top-K slices to return
  double alpha = 0.95;     ///< error/size weight in (0, 1]; paper's default
  int64_t min_support = 0; ///< sigma; 0 = max(32, ceil(n/100))
  int max_level = 0;       ///< ceil(L); 0 = unbounded (i.e. m)

  // -- pruning toggles (Section 3.2; the Figure 3 ablation switches these) --
  bool prune_size = true;     ///< upper-bound size pruning (|S|_ub >= sigma)
  bool prune_score = true;    ///< upper-bound score pruning (vs 0 and sc_k)
  bool prune_parents = true;  ///< missing-parent handling (np == L)
  bool deduplicate = true;    ///< merge duplicate pair-generated candidates

  // -- execution (Section 4.4) --
  /// Block size b of the hybrid scan-shared evaluation; only used by the
  /// kScanBlock strategy, which evaluates b slices per data-parallel pass
  /// over the rows. b=1 degenerates to one pass per slice, huge b to one
  /// pass per level.
  int eval_block_size = 16;
  /// Both strategies are schedules of one bitmap evaluation loop over one
  /// column store (data/column_store.h, linalg::EvaluateCandidatesBlocked).
  /// The values are fixed because checkpoint config hashes include them.
  enum class EvalStrategy {
    kScanBlock = 1,  ///< blocks of b slices, each evaluated data-parallel
                     ///< over row ranges (Figure 7(b) MT-Ops)
    kBitset = 2,     ///< task-parallel over slices, each over all rows
                     ///< (Figure 7(b) MT-PFor; default)
  };
  /// kBitset is the default hot path: it needs no per-block barrier and no
  /// partial sums. Both strategies run the runtime-dispatched SIMD kernels
  /// and sum errors exactly (linalg::ExactSum), rounding each slice's sum
  /// once, so they return bit-identical results for any error vector,
  /// thread count and ISA.
  EvalStrategy eval_strategy = EvalStrategy::kBitset;
  bool parallel = true;  ///< run generation and evaluation on the pool

  // -- governance (borrowed; must outlive the run) --
  /// Deadline / cancellation / memory-budget handle polled at level,
  /// candidate-batch, and strided kernel-loop boundaries. nullptr imposes
  /// nothing. On pressure the engine degrades (raises effective sigma, caps
  /// candidates, caps levels) and, if that is not enough, returns the
  /// best-so-far top-K with outcome.partial = true instead of an error.
  RunContext* run_context = nullptr;

  // -- checkpointing (level-wise engines: native, LA, distributed) --
  /// When non-empty, the enumeration frontier is checkpointed to
  /// `<checkpoint_dir>/sliceline.ckpt` after every completed level.
  std::string checkpoint_dir;
  /// Resume from the checkpoint in checkpoint_dir when one exists and its
  /// config/data hashes match; a fresh run is started otherwise.
  bool resume = false;
};

/// Per-level enumeration statistics (Figures 3/4 and Table 2 report these).
struct LevelStats {
  int level = 0;
  int64_t candidates = 0;  ///< slices evaluated at this level
  int64_t valid = 0;       ///< evaluated slices with ss >= sigma && se > 0
  int64_t pruned = 0;      ///< generated candidates removed before evaluation
  double seconds = 0.0;    ///< elapsed wall-clock for the level
};

/// Full output of a SliceLine run.
struct SliceLineResult {
  std::vector<Slice> top_k;  ///< sorted by descending score
  std::vector<LevelStats> levels;
  double total_seconds = 0.0;
  double average_error = 0.0;  ///< e-bar over the full dataset
  int64_t min_support = 0;     ///< resolved sigma
  int64_t total_evaluated = 0; ///< sum of per-level candidates
  /// How the run ended (completed / degraded / stopped early) plus the
  /// degradation and checkpoint bookkeeping; see RunOutcome.
  RunOutcome outcome;
};

/// The one spelling of an evaluation strategy ("scan_block", "bitset"),
/// used by the worker protocol, replay files and run reports.
const char* EvalStrategyName(SliceLineConfig::EvalStrategy strategy);

/// Inverse of EvalStrategyName; InvalidArgument for any other name.
StatusOr<SliceLineConfig::EvalStrategy> ParseEvalStrategy(
    const std::string& name);

/// InvalidArgument unless alpha is in (0, 1], k >= 1 and min_support >= 0:
/// the config part of CheckInputs, which RunSliceLineWithBackend runs for
/// backends that bring their own data.
Status CheckConfig(const SliceLineConfig& config);

/// The one input check every engine runs before it reads anything:
/// InvalidArgument for an empty x0, an error vector whose size is not
/// x0.rows(), or a config CheckConfig rejects. The errors and codes are
/// checked where they are read: by the column store, or by CheckErrors and
/// data::CheckedOffsets in the engines without one; both name the same row.
Status CheckInputs(const data::IntMatrix& x0, const std::vector<double>& errors,
                   const SliceLineConfig& config);

/// InvalidArgument naming the first row whose error is negative or not
/// finite, in the column store's words.
Status CheckErrors(const std::vector<double>& errors);

/// InvalidArgument unless the dataset carries its error vector: the check of
/// every engine's EncodedDataset overload.
Status CheckHasErrors(const data::EncodedDataset& dataset);

/// Decodes one-hot columns into (feature, 1-based code) predicates.
std::vector<std::pair<int, int32_t>> DecodeColumns(
    const data::FeatureOffsets& offsets, const int64_t* cols, int64_t len);

/// Resolves the effective minimum support: config value, or the paper's
/// default max(32, ceil(n/100)) when unset.
int64_t ResolveMinSupport(const SliceLineConfig& config, int64_t n);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_SLICE_H_
