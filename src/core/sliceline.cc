#include "core/sliceline.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/candidates.h"
#include "core/checkpoint.h"
#include "core/evaluator.h"
#include "core/governance.h"
#include "core/scoring.h"
#include "core/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::core {

namespace {

/// Fingerprint of what the backend sees of the dataset (the level-1 view is
/// the full derivation input for every later level), so a checkpoint binds
/// to the data without the engine needing the raw matrix.
uint64_t HashBackendData(const EvaluatorBackend& evaluator) {
  Fnv1a h;
  h.Add64(static_cast<uint64_t>(evaluator.n()));
  h.Add64(static_cast<uint64_t>(evaluator.offsets().total));
  h.AddDouble(evaluator.total_error());
  for (int64_t s : evaluator.basic_sizes()) {
    h.Add64(static_cast<uint64_t>(s));
  }
  for (double e : evaluator.basic_error_sums()) h.AddDouble(e);
  return h.hash();
}

/// Keeps the `cap` candidates with the best upper-bound scores (degradation
/// ladder step 2), preserving the original relative order of the kept rows
/// so the run stays deterministic. Returns the number dropped.
int64_t CapCandidatesByUpperBound(const ScoringContext& context, int64_t sigma,
                                  int64_t cap, SliceSet* cands,
                                  std::vector<ParentBounds>* bounds) {
  const int64_t total = cands->size();
  if (cap <= 0 || total <= cap) return 0;
  std::vector<int64_t> order(static_cast<size_t>(total));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> ub(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    ub[i] = UpperBoundScore(context, sigma, (*bounds)[i]);
  }
  std::nth_element(order.begin(), order.begin() + cap, order.end(),
                   [&ub](int64_t a, int64_t b) {
                     return ub[a] != ub[b] ? ub[a] > ub[b] : a < b;
                   });
  order.resize(static_cast<size_t>(cap));
  std::sort(order.begin(), order.end());
  SliceSet kept;
  std::vector<ParentBounds> kept_bounds;
  kept_bounds.reserve(order.size());
  for (int64_t i : order) {
    kept.Add(cands->Columns(i), cands->Columns(i) + cands->Length(i));
    kept_bounds.push_back((*bounds)[i]);
  }
  *cands = std::move(kept);
  *bounds = std::move(kept_bounds);
  return total - cap;
}

}  // namespace

StatusOr<SliceLineResult> RunSliceLine(const data::IntMatrix& x0,
                                       const std::vector<double>& errors,
                                       const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckInputs(x0, errors, config));
  // The store checks the errors and codes and derives the offsets.
  SLICELINE_ASSIGN_OR_RETURN(const std::unique_ptr<data::ColumnStore> store,
                             data::ColumnStore::Build(x0, errors));
  const SliceEvaluator evaluator(*store);
  return RunSliceLineWithBackend(evaluator, config);
}

StatusOr<SliceLineResult> RunSliceLineWithBackend(
    const EvaluatorBackend& evaluator, const SliceLineConfig& config) {
  return RunLevelWise(evaluator, config, "native", GeneratePairCandidates);
}

StatusOr<SliceLineResult> RunLevelWise(const EvaluatorBackend& evaluator,
                                       const SliceLineConfig& config,
                                       const char* engine,
                                       CandidateGenerator generate) {
  SLICELINE_RETURN_NOT_OK(CheckConfig(config));
  Stopwatch total_watch;
  TRACE_SPAN("sliceline/run", std::string(engine));

  const data::FeatureOffsets& offsets = evaluator.offsets();
  const int64_t n = evaluator.n();
  const int64_t sigma = ResolveMinSupport(config, n);
  const ScoringContext context(n, evaluator.total_error(), config.alpha);

  // Install the run's memory budget as the thread-local ambient budget so
  // matrix allocations inside the driver, the generator and the evaluator
  // charge it.
  std::optional<ScopedMemoryBudget> scoped_budget;
  if (config.run_context != nullptr &&
      config.run_context->memory_budget() != nullptr) {
    scoped_budget.emplace(config.run_context->memory_budget());
  }

  SliceLineResult result;
  result.min_support = sigma;
  result.average_error = context.average_error();
  if (evaluator.total_error() <= 0.0) {
    // A perfect model has no problematic slices.
    result.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }

  TopK topk(config.k, sigma);
  const int max_level =
      config.max_level > 0
          ? std::min<int>(config.max_level, offsets.num_features())
          : offsets.num_features();
  GovernanceController gov(config, sigma, max_level);

  const bool checkpointing = !config.checkpoint_dir.empty();
  uint64_t config_hash = 0;
  uint64_t data_hash = 0;
  if (checkpointing) {
    config_hash = HashConfigForCheckpoint(config, sigma, engine);
    data_hash = HashBackendData(evaluator);
  }
  const auto save_checkpoint = [&](int completed_level, const SliceSet& prev,
                                   const EvalResult& prev_stats) {
    CheckpointState state;
    state.engine = engine;
    state.config_hash = config_hash;
    state.data_hash = data_hash;
    state.level = completed_level;
    state.effective_sigma = gov.effective_sigma();
    state.degradation_steps = gov.degradation_steps();
    state.candidates_capped = gov.candidates_capped();
    state.total_evaluated = result.total_evaluated;
    state.levels = result.levels;
    state.topk = topk.Slices();
    state.frontier_ss = prev_stats.sizes;
    state.frontier_se = prev_stats.error_sums;
    state.frontier_sm = prev_stats.max_errors;
    state.frontier = SliceSetToCsr(prev, offsets.total);
    const Status saved = SaveCheckpoint(config.checkpoint_dir, state);
    // A failed save must not kill the run it exists to protect.
    if (!saved.ok()) {
      LOG_WARNING << "checkpoint save failed: " << saved.ToString();
    }
  };

  SliceSet prev;
  EvalResult prev_stats;
  bool resumed = false;
  int start_level = 2;

  if (checkpointing && config.resume &&
      CheckpointFileExists(config.checkpoint_dir)) {
    StatusOr<CheckpointState> loaded = LoadCheckpoint(config.checkpoint_dir);
    if (loaded.ok() && (loaded->engine != engine ||
                        loaded->config_hash != config_hash ||
                        loaded->data_hash != data_hash)) {
      LOG_WARNING << "ignoring checkpoint for a different run "
                     "(engine/config/data hash mismatch)";
    } else if (const Status usable =
                   loaded.ok() ? CheckResumable(*loaded, offsets, n, config.k)
                               : loaded.status();
               !usable.ok()) {
      LOG_WARNING << "ignoring unusable checkpoint: " << usable.ToString();
    } else {
      prev = CsrToSliceSet(loaded->frontier);
      prev_stats.sizes = std::move(loaded->frontier_ss);
      prev_stats.error_sums = std::move(loaded->frontier_se);
      prev_stats.max_errors = std::move(loaded->frontier_sm);
      topk.Restore(std::move(loaded->topk));
      result.levels = std::move(loaded->levels);
      result.total_evaluated = loaded->total_evaluated;
      gov.RestoreDegradation(loaded->degradation_steps,
                             loaded->effective_sigma,
                             loaded->candidates_capped);
      start_level = loaded->level + 1;
      resumed = true;
    }
  }

  Stopwatch level_watch;
  if (!resumed) {
    // -- Level 1: create and score basic slices (Section 4.2). --
    LevelStats level1;
    level1.level = 1;
    level1.candidates = offsets.total;  // all one-hot features considered
    for (int64_t c = 0; c < offsets.total; ++c) {
      const int64_t ss = evaluator.basic_sizes()[c];
      const double se = evaluator.basic_error_sums()[c];
      const bool valid = ss >= sigma && se > 0.0;
      if (valid) ++level1.valid;
      const bool keep = (!config.prune_size || ss >= sigma) && se > 0.0;
      if (!keep) {
        ++level1.pruned;
        continue;
      }
      prev.Add(&c, &c + 1);
      prev_stats.sizes.push_back(static_cast<double>(ss));
      prev_stats.error_sums.push_back(se);
      prev_stats.max_errors.push_back(evaluator.basic_max_errors()[c]);
      const double score = context.Score(ss, se);
      // Offer's own rejection rule, checked before decoding the predicates.
      if (score > topk.Threshold() && ss >= sigma) {
        Slice slice;
        slice.predicates = DecodeColumns(offsets, &c, 1);
        slice.stats = {score, se, evaluator.basic_max_errors()[c], ss};
        topk.Offer(std::move(slice));
      }
    }
    level1.seconds = level_watch.ElapsedSeconds();
    obs::RecordLevelMetrics(engine, 1, level1.candidates, level1.valid,
                            level1.pruned, level1.seconds);
    result.levels.push_back(level1);
    result.total_evaluated += level1.candidates;
    if (checkpointing) save_checkpoint(1, prev, prev_stats);
  }

  // -- Levels 2..max: enumerate, evaluate, maintain top-K. --
  StopReason stop = StopReason::kNone;
  int stopped_level = 0;
  for (int level = start_level;
       level <= gov.effective_max_level() && prev.size() > 0; ++level) {
    stop = gov.CheckBoundary();
    if (stop != StopReason::kNone) {
      stopped_level = level;
      break;
    }
    gov.MaybeDegrade(level);
    if (level > gov.effective_max_level()) break;

    TRACE_SPAN("sliceline/level", level);
    level_watch.Reset();
    std::vector<ParentBounds> bounds;
    CandidateGenStats gen_stats;
    SliceSet cands;
    {
      TRACE_SPAN("sliceline/candidate_gen", level);
      cands = generate(prev, prev_stats, level, context, gov.effective_sigma(),
                       topk.Threshold(), config, offsets, &bounds,
                       &gen_stats);
    }
    // Generation polls the run context too; a stop there discards the level
    // and must not read as a natural end. The generator reports its own stop:
    // a memory stop ends once it releases its buffers.
    stop = gen_stats.stop != StopReason::kNone ? gen_stats.stop
                                               : gov.CheckBoundary();
    if (stop != StopReason::kNone) {
      stopped_level = level;
      break;
    }
    const obs::LevelGenCounts gen_counts{gen_stats.pairs,
                                         gen_stats.pair_rejected,
                                         gen_stats.candidate_rejected};
    if (cands.size() == 0) {
      LevelStats stats;
      stats.level = level;
      stats.pruned = gen_stats.pruned;
      stats.seconds = level_watch.ElapsedSeconds();
      obs::RecordLevelMetrics(engine, stats.level, stats.candidates,
                              stats.valid, stats.pruned, stats.seconds,
                              &gen_counts);
      result.levels.push_back(stats);
      break;
    }
    gov.RecordCapped(CapCandidatesByUpperBound(
        context, gov.effective_sigma(), gov.candidate_cap(), &cands, &bounds));

    // Explicit budget charge for the frontier the driver holds (flat
    // arrays, not governed matrices).
    const MemoryCharge level_charge(
        cands.total_columns() * static_cast<int64_t>(sizeof(int64_t)) +
        (cands.size() + 1) * static_cast<int64_t>(sizeof(int64_t)) +
        3 * cands.size() * static_cast<int64_t>(sizeof(double)));

    StatusOr<EvalResult> eval_or = evaluator.Evaluate(cands, config);
    if (!eval_or.ok()) {
      if (IsGovernanceStatus(eval_or.status())) {
        stop = StopReasonFromStatus(eval_or.status());
        stopped_level = level;
        break;
      }
      return eval_or.status();
    }
    EvalResult eval = std::move(eval_or).value();

    LevelStats stats;
    stats.level = level;
    stats.candidates = cands.size();
    stats.pruned = gen_stats.pruned;
    for (int64_t i = 0; i < cands.size(); ++i) {
      const int64_t ss = static_cast<int64_t>(eval.sizes[i]);
      const double se = eval.error_sums[i];
      if (ss >= sigma && se > 0.0) ++stats.valid;
      const double score = context.Score(ss, se);
      if (score > topk.Threshold() && ss >= sigma) {
        Slice slice;
        slice.predicates = DecodeColumns(offsets, cands.Columns(i),
                                         cands.Length(i));
        slice.stats = {score, se, eval.max_errors[i], ss};
        topk.Offer(std::move(slice));
      }
    }
    stats.seconds = level_watch.ElapsedSeconds();
    obs::RecordLevelMetrics(engine, stats.level, stats.candidates,
                            stats.valid, stats.pruned, stats.seconds,
                            &gen_counts);
    result.levels.push_back(stats);
    result.total_evaluated += stats.candidates;

    prev = std::move(cands);
    prev_stats = std::move(eval);
    if (checkpointing) save_checkpoint(level, prev, prev_stats);
  }

  result.top_k = topk.Slices();
  result.outcome = gov.Finish(stop, stopped_level, resumed);
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

StatusOr<SliceLineResult> RunSliceLine(const data::EncodedDataset& dataset,
                                       const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckHasErrors(dataset));
  return RunSliceLine(dataset.x0, dataset.errors, config);
}

}  // namespace sliceline::core
