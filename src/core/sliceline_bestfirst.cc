#include "core/sliceline_bestfirst.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>

#include "common/stopwatch.h"
#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/governance.h"
#include "core/scoring.h"
#include "core/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::core {

namespace {

struct QueueEntry {
  double bound;                  ///< upper bound on any strict descendant
  std::vector<int64_t> columns;  ///< one-hot columns of the slice
  int last_feature;              ///< highest bound feature (-1 for root)
  int64_t size;                  ///< |S| of this slice (n for the root)

  bool operator<(const QueueEntry& other) const {
    return bound < other.bound;  // max-heap on the bound
  }
};

}  // namespace

StatusOr<SliceLineResult> RunSliceLineBestFirst(
    const data::IntMatrix& x0, const std::vector<double>& errors,
    const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckInputs(x0, errors, config));
  Stopwatch total_watch;
  TRACE_SPAN("bestfirst/run");

  // The store checks the errors and codes and derives the offsets.
  SLICELINE_ASSIGN_OR_RETURN(const std::unique_ptr<data::ColumnStore> store,
                             data::ColumnStore::Build(x0, errors));
  const SliceEvaluator evaluator(*store);
  const data::FeatureOffsets& offsets = evaluator.offsets();
  const int64_t n = x0.rows();
  const int64_t sigma = ResolveMinSupport(config, n);
  const int m = offsets.num_features();
  const int max_level =
      config.max_level > 0 ? std::min(config.max_level, m) : m;

  SliceLineResult result;
  result.min_support = sigma;
  result.average_error =
      evaluator.total_error() / static_cast<double>(n);
  if (evaluator.total_error() <= 0.0) {
    result.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }
  const ScoringContext context(n, evaluator.total_error(), config.alpha);
  TopK topk(config.k, sigma);

  // Per-depth evaluation counters, reported through LevelStats.
  std::vector<int64_t> evaluated_at_level(static_cast<size_t>(max_level) + 1,
                                          0);

  GovernanceController gov(config, sigma, max_level);
  std::optional<ScopedMemoryBudget> scoped_budget;
  if (config.run_context != nullptr &&
      config.run_context->memory_budget() != nullptr) {
    scoped_budget.emplace(config.run_context->memory_budget());
  }
  StopReason stop = StopReason::kNone;
  int stopped_level = 0;

  std::priority_queue<QueueEntry> queue;
  queue.push(QueueEntry{std::numeric_limits<double>::infinity(), {}, -1, n});

  while (!queue.empty()) {
    QueueEntry entry = queue.top();
    queue.pop();
    // Admissible-bound early exit: nothing left can beat the K-th score
    // (or reach a positive score at all).
    if (entry.bound <= std::max(topk.Threshold(), 0.0)) break;
    const int level = static_cast<int>(entry.columns.size()) + 1;
    stop = gov.CheckBoundary();
    if (stop != StopReason::kNone) {
      stopped_level = level;
      break;
    }
    gov.MaybeDegrade(level);
    if (level > gov.effective_max_level()) continue;

    // Expand: one extra predicate on each feature after the last bound one.
    SliceSet children;
    std::vector<std::vector<int64_t>> child_columns;
    for (int f = entry.last_feature + 1; f < m; ++f) {
      for (int32_t code = 1; code <= offsets.fdom[f]; ++code) {
        std::vector<int64_t> cols = entry.columns;
        cols.push_back(offsets.ColumnOf(f, code));
        children.Add(cols);
        child_columns.push_back(std::move(cols));
      }
    }
    if (children.size() == 0) continue;
    StatusOr<EvalResult> eval = evaluator.Evaluate(children, config);
    if (!eval.ok()) {
      // A governance stop mid-evaluation is a graceful exit with the
      // best-so-far top-K; any other error propagates.
      if (IsGovernanceStatus(eval.status())) {
        stop = StopReasonFromStatus(eval.status());
        stopped_level = level;
        break;
      }
      return eval.status();
    }
    EvalResult stats = std::move(eval).value();
    evaluated_at_level[level] += children.size();

    for (int64_t i = 0; i < children.size(); ++i) {
      const int64_t size = static_cast<int64_t>(stats.sizes[i]);
      const double se = stats.error_sums[i];
      if (size < sigma) continue;  // size monotone: no valid descendants
      const double score = context.Score(size, se);
      // Offer's own rejection rule, checked before decoding the predicates.
      if (score > topk.Threshold()) {
        Slice slice;
        slice.predicates =
            DecodeColumns(offsets, child_columns[i].data(),
                          static_cast<int64_t>(child_columns[i].size()));
        slice.stats = {score, se, stats.max_errors[i], size};
        topk.Offer(std::move(slice));
      }
      if (se <= 0.0 || level >= gov.effective_max_level()) continue;
      // Degradation raises the sigma used for *expansion* only; admission
      // above kept the run's base sigma.
      if (size < gov.effective_sigma()) continue;
      // Bound on descendants from the child's own (exact) statistics.
      ParentBounds bounds;
      bounds.AddParent(size, se, stats.max_errors[i]);
      const double bound =
          UpperBoundScore(context, gov.effective_sigma(), bounds);
      if (bound > std::max(topk.Threshold(), 0.0)) {
        const int last_feature =
            offsets.FeatureOfColumn(child_columns[i].back());
        queue.push(QueueEntry{bound, std::move(child_columns[i]),
                              last_feature, size});
      }
    }
  }

  for (int level = 1; level <= max_level; ++level) {
    if (evaluated_at_level[level] == 0 && level > 1) continue;
    LevelStats stats;
    stats.level = level;
    stats.candidates = evaluated_at_level[level];
    obs::RecordLevelMetrics("bestfirst", stats.level, stats.candidates,
                            stats.valid, stats.pruned, stats.seconds);
    result.levels.push_back(stats);
    result.total_evaluated += evaluated_at_level[level];
  }
  result.outcome = gov.Finish(stop, stopped_level, false);
  result.top_k = topk.Slices();
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

StatusOr<SliceLineResult> RunSliceLineBestFirst(
    const data::EncodedDataset& dataset, const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckHasErrors(dataset));
  return RunSliceLineBestFirst(dataset.x0, dataset.errors, config);
}

}  // namespace sliceline::core
