#include "core/exhaustive.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "core/scoring.h"
#include "core/topk.h"
#include "data/onehot.h"
#include "linalg/exact_sum.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::core {

namespace {

struct DfsState {
  const data::IntMatrix* x0;
  const std::vector<double>* errors;
  const ScoringContext* context;
  int64_t sigma;
  int max_level;
  TopK* topk;
  const RunContext* ctx = nullptr;
  StopReason stop = StopReason::kNone;
  int stopped_depth = 0;  ///< DFS depth when the stop was observed
  int64_t enumerated = 0;
  std::vector<std::pair<int, int32_t>> predicates;
};

constexpr int64_t kGovernanceStride = 64;

/// Extends the current slice with one predicate on each feature >= `feature`,
/// recursing on the filtered row set. Unwinds immediately once a governance
/// stop is observed (polled every kGovernanceStride enumerated slices).
void Dfs(DfsState& state, int feature, const std::vector<int32_t>& rows) {
  const data::IntMatrix& x0 = *state.x0;
  const int m = static_cast<int>(x0.cols());
  if (state.stop != StopReason::kNone) return;
  if (static_cast<int>(state.predicates.size()) >= state.max_level) return;
  for (int f = feature; f < m; ++f) {
    // Partition the candidate rows by this feature's code.
    int32_t dom = 0;
    for (int32_t r : rows) dom = std::max(dom, x0.At(r, f));
    std::vector<std::vector<int32_t>> buckets(static_cast<size_t>(dom));
    for (int32_t r : rows) buckets[x0.At(r, f) - 1].push_back(r);
    for (int32_t code = 1; code <= dom; ++code) {
      const std::vector<int32_t>& subset = buckets[code - 1];
      if (static_cast<int64_t>(subset.size()) < state.sigma) continue;
      linalg::ExactSum exact_se;
      double sm = 0.0;
      for (int32_t r : subset) {
        const double e = (*state.errors)[r];
        exact_se.Add(e);
        if (e > sm) sm = e;
      }
      const double se = exact_se.ToDouble();
      ++state.enumerated;
      if (state.ctx != nullptr && state.enumerated % kGovernanceStride == 0) {
        state.stop = state.ctx->CheckStop();
        if (state.stop != StopReason::kNone) {
          state.stopped_depth =
              static_cast<int>(state.predicates.size()) + 1;
          return;
        }
      }
      state.predicates.emplace_back(f, code);
      const double score =
          state.context->Score(static_cast<int64_t>(subset.size()), se);
      if (score > 0.0) {
        Slice slice;
        slice.predicates = state.predicates;
        slice.stats = {score, se, sm, static_cast<int64_t>(subset.size())};
        state.topk->Offer(std::move(slice));
      }
      Dfs(state, f + 1, subset);
      state.predicates.pop_back();
      if (state.stop != StopReason::kNone) return;
    }
  }
}

}  // namespace

StatusOr<SliceLineResult> RunExhaustive(const data::IntMatrix& x0,
                                        const std::vector<double>& errors,
                                        const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckInputs(x0, errors, config));
  SLICELINE_RETURN_NOT_OK(CheckErrors(errors));
  SLICELINE_RETURN_NOT_OK(data::CheckedOffsets(x0).status());
  Stopwatch watch;
  TRACE_SPAN("exhaustive/run");
  const int64_t n = x0.rows();
  linalg::ExactSum exact_total;
  for (double e : errors) exact_total.Add(e);
  const double total_error = exact_total.ToDouble();

  SliceLineResult result;
  result.min_support = ResolveMinSupport(config, n);
  result.average_error = total_error / static_cast<double>(n);
  if (total_error <= 0.0) {
    result.total_seconds = watch.ElapsedSeconds();
    return result;
  }
  const ScoringContext context(n, total_error, config.alpha);
  TopK topk(config.k, result.min_support);

  DfsState state;
  state.x0 = &x0;
  state.errors = &errors;
  state.context = &context;
  state.sigma = result.min_support;
  state.max_level = config.max_level > 0
                        ? std::min<int>(config.max_level,
                                        static_cast<int>(x0.cols()))
                        : static_cast<int>(x0.cols());
  state.topk = &topk;
  state.ctx = config.run_context;

  std::vector<int32_t> all_rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) all_rows[i] = static_cast<int32_t>(i);
  {
    TRACE_SPAN("exhaustive/dfs");
    Dfs(state, 0, all_rows);
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Default()
        ->GetCounter("exhaustive/enumerated")
        ->Add(state.enumerated);
  }

  if (state.stop != StopReason::kNone) {
    switch (state.stop) {
      case StopReason::kCancelled:
        result.outcome.termination = RunOutcome::Termination::kCancelled;
        break;
      case StopReason::kDeadlineExceeded:
        result.outcome.termination =
            RunOutcome::Termination::kDeadlineExceeded;
        break;
      default:
        result.outcome.termination =
            RunOutcome::Termination::kBudgetExhausted;
        break;
    }
    result.outcome.partial = true;
    result.outcome.stopped_at_level = state.stopped_depth;
  }
  if (config.run_context != nullptr &&
      config.run_context->memory_budget() != nullptr) {
    result.outcome.peak_memory_bytes =
        config.run_context->memory_budget()->peak_bytes();
  }
  result.top_k = topk.Slices();
  result.total_evaluated = state.enumerated;
  result.total_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace sliceline::core
