#include "core/sliceline_la.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/bounds.h"
#include "core/checkpoint.h"
#include "core/governance.h"
#include "core/scoring.h"
#include "core/topk.h"
#include "data/column_store.h"
#include "data/onehot.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::core {

namespace {

using linalg::CsrMatrix;

struct VecHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (int64_t c : key) {
      h ^= static_cast<uint64_t>(c);
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// Per-level working state: the slice matrix S over the compacted column
/// space plus the aligned statistics (the paper's R).
struct LevelData {
  CsrMatrix s;
  std::vector<double> ss;
  std::vector<double> se;
  std::vector<double> sm;
};

/// Decodes row `r` of a compacted slice matrix into predicates.
std::vector<std::pair<int, int32_t>> DecodeRow(
    const CsrMatrix& s, int64_t r, const std::vector<int64_t>& kept_cols,
    const data::FeatureOffsets& offsets) {
  std::vector<std::pair<int, int32_t>> preds;
  for (int64_t k = 0; k < s.RowNnz(r); ++k) {
    const int64_t original = kept_cols[s.RowCols(r)[k]];
    preds.emplace_back(offsets.FeatureOfColumn(original),
                       offsets.CodeOfColumn(original));
  }
  std::sort(preds.begin(), preds.end());
  return preds;
}

}  // namespace

StatusOr<SliceLineResult> RunSliceLineLA(const data::IntMatrix& x0,
                                         const std::vector<double>& errors,
                                         const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckInputs(x0, errors, config));
  SLICELINE_RETURN_NOT_OK(CheckErrors(errors));
  Stopwatch total_watch;
  TRACE_SPAN("la/run");

  // a) data preparation: offsets and one-hot encoding (lines 1-5).
  SLICELINE_ASSIGN_OR_RETURN(const data::FeatureOffsets offsets,
                             data::CheckedOffsets(x0));
  CsrMatrix x = data::OneHotEncode(x0, offsets);
  const int64_t n = x.rows();
  const int64_t sigma = ResolveMinSupport(config, n);

  // b) initialization: statistics and basic slices (lines 6-9). Every
  // error sum is exact and rounded once, like the native engine's.
  data::ErrorGrid grid;
  linalg::ExactSum exact_total;
  for (double e : errors) {
    grid.Add(e);
    exact_total.Add(e);
  }
  const double total_error = exact_total.ToDouble();
  SliceLineResult result;
  result.min_support = sigma;
  result.average_error = total_error / static_cast<double>(n);
  if (total_error <= 0.0) {
    result.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }
  const ScoringContext context(n, total_error, config.alpha);
  TopK topk(config.k, sigma);

  const linalg::SumLayout layout = grid.layout();
  Stopwatch level_watch;
  const std::vector<double> ss0 = linalg::ColSums(x);
  std::vector<double> se0;
  std::vector<double> sm0;
  {
    const CsrMatrix xe = linalg::ScaleRows(x, errors);
    se0 = linalg::ExactColSums(xe, layout);
    sm0 = linalg::ColMaxs(xe);
  }

  // cI: basic slices to keep (line 12's X <- X[, cI] column compaction).
  std::vector<int64_t> kept_cols;
  for (int64_t c = 0; c < offsets.total; ++c) {
    const bool keep =
        (!config.prune_size || ss0[c] >= static_cast<double>(sigma)) &&
        se0[c] > 0.0;
    if (keep) kept_cols.push_back(c);
  }

  LevelStats level1;
  level1.level = 1;
  level1.candidates = offsets.total;
  for (int64_t c = 0; c < offsets.total; ++c) {
    if (ss0[c] >= static_cast<double>(sigma) && se0[c] > 0.0) ++level1.valid;
  }
  level1.pruned = offsets.total - static_cast<int64_t>(kept_cols.size());

  // Offer qualifying basic slices to the top-K.
  for (int64_t c = 0; c < offsets.total; ++c) {
    const int64_t size = static_cast<int64_t>(ss0[c]);
    if (size < sigma || se0[c] <= 0.0) continue;
    const double score = context.Score(size, se0[c]);
    if (score > 0.0) {
      Slice slice;
      slice.predicates = {{offsets.FeatureOfColumn(c),
                           offsets.CodeOfColumn(c)}};
      slice.stats = {score, se0[c], sm0[c], size};
      topk.Offer(std::move(slice));
    }
  }
  level1.seconds = level_watch.ElapsedSeconds();
  obs::RecordLevelMetrics("la", 1, level1.candidates, level1.valid,
                          level1.pruned, level1.seconds);
  result.levels.push_back(level1);
  result.total_evaluated += level1.candidates;

  const int64_t p = static_cast<int64_t>(kept_cols.size());
  if (p == 0) {
    result.top_k = topk.Slices();
    result.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }
  x = linalg::SelectColumns(x, kept_cols);

  // Feature/code lookup per compacted column.
  std::vector<int> feat_of(static_cast<size_t>(p));
  for (int64_t j = 0; j < p; ++j) {
    feat_of[j] = offsets.FeatureOfColumn(kept_cols[j]);
  }

  // Basic-slice matrix S = I_p (one predicate per row) plus statistics.
  LevelData level;
  {
    std::vector<int64_t> row_ptr(p + 1);
    std::vector<int64_t> cols(static_cast<size_t>(p));
    for (int64_t i = 0; i <= p; ++i) row_ptr[i] = i;
    for (int64_t i = 0; i < p; ++i) cols[i] = i;
    level.s = CsrMatrix(p, p, std::move(row_ptr), std::move(cols),
                        std::vector<double>(static_cast<size_t>(p), 1.0));
    level.ss.reserve(p);
    for (int64_t j = 0; j < p; ++j) {
      level.ss.push_back(ss0[kept_cols[j]]);
      level.se.push_back(se0[kept_cols[j]]);
      level.sm.push_back(sm0[kept_cols[j]]);
    }
  }

  const int max_level =
      config.max_level > 0
          ? std::min<int>(config.max_level, static_cast<int>(x0.cols()))
          : static_cast<int>(x0.cols());
  GovernanceController gov(config, sigma, max_level);

  // Install the run's memory budget so every CSR intermediate of the
  // level-wise kernels (joins, selection tables, blocked products) charges
  // it.
  std::optional<ScopedMemoryBudget> scoped_budget;
  if (config.run_context != nullptr &&
      config.run_context->memory_budget() != nullptr) {
    scoped_budget.emplace(config.run_context->memory_budget());
  }

  const bool checkpointing = !config.checkpoint_dir.empty();
  uint64_t config_hash = 0;
  uint64_t data_hash = 0;
  uint64_t aux_hash = 0;
  if (checkpointing) {
    config_hash = HashConfigForCheckpoint(config, sigma, "la");
    Fnv1a dh;
    dh.Add64(static_cast<uint64_t>(n));
    dh.Add64(static_cast<uint64_t>(offsets.total));
    dh.AddDouble(total_error);
    for (double v : ss0) dh.AddDouble(v);
    for (double v : se0) dh.AddDouble(v);
    data_hash = dh.hash();
    // kept_cols defines the compacted column space the frontier matrix is
    // expressed in; a checkpoint is only resumable when it matches exactly.
    Fnv1a ah;
    for (int64_t c : kept_cols) ah.Add64(static_cast<uint64_t>(c));
    aux_hash = ah.hash();
  }
  const auto save_checkpoint = [&](int completed_level) {
    CheckpointState state;
    state.engine = "la";
    state.config_hash = config_hash;
    state.data_hash = data_hash;
    state.aux_hash = aux_hash;
    state.level = completed_level;
    state.effective_sigma = gov.effective_sigma();
    state.degradation_steps = gov.degradation_steps();
    state.candidates_capped = gov.candidates_capped();
    state.total_evaluated = result.total_evaluated;
    state.levels = result.levels;
    state.topk = topk.Slices();
    state.frontier_ss = level.ss;
    state.frontier_se = level.se;
    state.frontier_sm = level.sm;
    state.frontier = level.s;
    const Status saved = SaveCheckpoint(config.checkpoint_dir, state);
    if (!saved.ok()) {
      LOG_WARNING << "checkpoint save failed: " << saved.ToString();
    }
  };

  bool resumed = false;
  int start_level = 2;
  if (checkpointing && config.resume &&
      CheckpointFileExists(config.checkpoint_dir)) {
    StatusOr<CheckpointState> loaded = LoadCheckpoint(config.checkpoint_dir);
    if (loaded.ok() && loaded->engine == "la" &&
        loaded->config_hash == config_hash && loaded->data_hash == data_hash &&
        loaded->aux_hash == aux_hash && loaded->frontier.cols() == p) {
      level.s = std::move(loaded->frontier);
      level.ss = std::move(loaded->frontier_ss);
      level.se = std::move(loaded->frontier_se);
      level.sm = std::move(loaded->frontier_sm);
      topk.Restore(std::move(loaded->topk));
      result.levels = std::move(loaded->levels);
      result.total_evaluated = loaded->total_evaluated;
      gov.RestoreDegradation(loaded->degradation_steps,
                             loaded->effective_sigma,
                             loaded->candidates_capped);
      start_level = loaded->level + 1;
      resumed = true;
    } else if (!loaded.ok()) {
      LOG_WARNING << "ignoring unusable checkpoint: "
                  << loaded.status().ToString();
    } else {
      LOG_WARNING << "ignoring checkpoint for a different run "
                     "(engine/config/data hash mismatch)";
    }
  }
  if (checkpointing && !resumed) save_checkpoint(1);

  // c) level-wise lattice enumeration (lines 13-19).
  StopReason stop = StopReason::kNone;
  int stopped_level = 0;
  for (int L = start_level;
       L <= gov.effective_max_level() && level.s.rows() > 0; ++L) {
    stop = gov.CheckBoundary();
    if (stop != StopReason::kNone) {
      stopped_level = L;
      break;
    }
    gov.MaybeDegrade(L);
    if (L > gov.effective_max_level()) break;
    const int64_t sigma_eff = gov.effective_sigma();

    TRACE_SPAN("la/level", L);
    level_watch.Reset();
    LevelStats stats;
    stats.level = L;

    // --- getPairCandidates: filter valid parents. ---
    std::vector<uint8_t> keep(static_cast<size_t>(level.s.rows()), 0);
    std::vector<int64_t> keep_rows;
    for (int64_t i = 0; i < level.s.rows(); ++i) {
      const bool size_ok = !config.prune_size ||
                           level.ss[i] >= static_cast<double>(sigma_eff);
      if (size_ok && level.se[i] > 0.0) {
        keep[i] = 1;
        keep_rows.push_back(i);
      }
    }
    CsrMatrix s = linalg::SelectRows(level.s, keep);
    std::vector<double> pss;
    std::vector<double> pse;
    std::vector<double> psm;
    for (int64_t i : keep_rows) {
      pss.push_back(level.ss[i]);
      pse.push_back(level.se[i]);
      psm.push_back(level.sm[i]);
    }
    const int64_t np_rows = s.rows();

    // --- join compatible pairs: upper.tri((S S^T) == L-2). ---
    std::vector<std::pair<int64_t, int64_t>> pairs;
    {
      TRACE_SPAN("la/candidate_gen", L);
      if (L == 2) {
        // Documented deviation: overlap target 0 is an implicit zero in the
        // sparse product; enumerate feature-compatible pairs directly.
        for (int64_t a = 0; a < np_rows; ++a) {
          const int fa = feat_of[s.RowCols(a)[0]];
          for (int64_t b = a + 1; b < np_rows; ++b) {
            if (feat_of[s.RowCols(b)[0]] != fa) pairs.emplace_back(a, b);
          }
        }
      } else {
        const CsrMatrix sst = linalg::MultiplyABt(s, s);
        pairs = linalg::UpperTriEquals(sst, static_cast<double>(L - 2));
      }
    }
    if (pairs.empty()) {
      stats.seconds = level_watch.ElapsedSeconds();
      obs::RecordLevelMetrics("la", stats.level, stats.candidates, stats.valid,
                              stats.pruned, stats.seconds);
      result.levels.push_back(stats);
      break;
    }

    // --- merge pairs: P = ((P1 S) + (P2 S)) != 0 via selection tables. ---
    const int64_t num_pairs = static_cast<int64_t>(pairs.size());
    std::vector<int64_t> seq(static_cast<size_t>(num_pairs));
    std::vector<int64_t> firsts(static_cast<size_t>(num_pairs));
    std::vector<int64_t> seconds(static_cast<size_t>(num_pairs));
    for (int64_t k = 0; k < num_pairs; ++k) {
      seq[k] = k;
      firsts[k] = pairs[k].first;
      seconds[k] = pairs[k].second;
    }
    const CsrMatrix p1 = linalg::Table(seq, firsts, num_pairs, np_rows);
    const CsrMatrix p2 = linalg::Table(seq, seconds, num_pairs, np_rows);
    CsrMatrix merged = linalg::Binarize(
        linalg::Add(linalg::Multiply(p1, s), linalg::Multiply(p2, s)));

    // Parent-inherited bounds per pair row (Equation 7).
    // --- validity: exactly L predicates, at most one per feature. ---
    std::vector<uint8_t> pair_valid(static_cast<size_t>(num_pairs), 1);
    for (int64_t k = 0; k < num_pairs; ++k) {
      if (merged.RowNnz(k) != L) {
        pair_valid[k] = 0;
        continue;
      }
      const int64_t* cols = merged.RowCols(k);
      for (int64_t t = 1; t < L; ++t) {
        if (feat_of[cols[t - 1]] == feat_of[cols[t]]) {
          pair_valid[k] = 0;
          break;
        }
      }
    }

    // --- deduplicate by slice identity; accumulate bounds over all
    //     distinct enumerated parents (Equation 8). ---
    struct Group {
      int64_t representative;  // pair row whose merged columns define S
      ParentBounds bounds;
      std::vector<int64_t> parents;
    };
    std::vector<Group> groups;
    std::unordered_map<std::vector<int64_t>, int64_t, VecHash> dedup;
    // np (Equation 8) is a property of the slice, not of one generating
    // pair: with deduplication ablated away, duplicate groups still share
    // one parent count, or every level >= 3 candidate would fail np == L.
    std::unordered_map<std::vector<int64_t>, Group, VecHash> parent_groups;
    int64_t duplicates = 0;
    auto add_parent = [&](Group* group, int64_t parent) {
      if (std::find(group->parents.begin(), group->parents.end(), parent) !=
          group->parents.end()) {
        return;
      }
      group->parents.push_back(parent);
      group->bounds.AddParent(static_cast<int64_t>(pss[parent]), pse[parent],
                              psm[parent]);
    };
    // Parent-group variant: with deduplication off, `s` holds duplicate
    // copies of one logical slice under different row ids, so np must
    // deduplicate by the parent's column vector, not its row id.
    auto add_group_parent = [&](Group* group, int64_t parent) {
      for (int64_t existing : group->parents) {
        if (s.RowNnz(existing) == s.RowNnz(parent) &&
            std::equal(s.RowCols(existing),
                       s.RowCols(existing) + s.RowNnz(existing),
                       s.RowCols(parent))) {
          return;
        }
      }
      group->parents.push_back(parent);
      group->bounds.AddParent(static_cast<int64_t>(pss[parent]), pse[parent],
                              psm[parent]);
    };
    for (int64_t k = 0; k < num_pairs; ++k) {
      if (!pair_valid[k]) continue;
      std::vector<int64_t> key(merged.RowCols(k),
                               merged.RowCols(k) + merged.RowNnz(k));
      int64_t group_idx;
      if (config.deduplicate) {
        auto [it, inserted] =
            dedup.try_emplace(std::move(key),
                              static_cast<int64_t>(groups.size()));
        if (inserted) {
          groups.push_back(Group{k, {}, {}});
        } else {
          ++duplicates;
        }
        group_idx = it->second;
      } else {
        group_idx = static_cast<int64_t>(groups.size());
        groups.push_back(Group{k, {}, {}});
        if (config.prune_parents) {
          auto [it, inserted] = parent_groups.try_emplace(std::move(key));
          add_group_parent(&it->second, firsts[k]);
          add_group_parent(&it->second, seconds[k]);
        }
      }
      add_parent(&groups[group_idx], firsts[k]);
      add_parent(&groups[group_idx], seconds[k]);
    }
    (void)duplicates;

    // --- Equation 9 pruning. ---
    std::vector<int64_t> survivors;
    std::vector<ParentBounds> survivor_bounds;
    for (const Group& group : groups) {
      bool keep_group = true;
      if (config.prune_size && group.bounds.size_ub < sigma_eff) {
        keep_group = false;
      }
      if (keep_group && config.prune_parents) {
        int np = group.bounds.parents;
        if (!config.deduplicate) {
          // Duplicate groups carry only their own pair's two parents; the
          // shared parent-count group has them all.
          const std::vector<int64_t> key(
              merged.RowCols(group.representative),
              merged.RowCols(group.representative) +
                  merged.RowNnz(group.representative));
          np = parent_groups.find(key)->second.bounds.parents;
        }
        if (np != L) keep_group = false;
      }
      if (keep_group && config.prune_score) {
        const double ub = UpperBoundScore(context, sigma_eff, group.bounds);
        if (!(ub > topk.Threshold() && ub >= 0.0)) keep_group = false;
      }
      if (!keep_group) {
        ++stats.pruned;
        continue;
      }
      survivors.push_back(group.representative);
      survivor_bounds.push_back(group.bounds);
    }
    if (survivors.empty()) {
      stats.seconds = level_watch.ElapsedSeconds();
      obs::RecordLevelMetrics("la", stats.level, stats.candidates, stats.valid,
                              stats.pruned, stats.seconds);
      result.levels.push_back(stats);
      break;
    }

    // Degraded runs keep only the most promising candidates, ranked by
    // their Equation 7 upper bound (ties broken by enumeration order so
    // the cap stays deterministic).
    if (gov.candidate_cap() > 0 &&
        static_cast<int64_t>(survivors.size()) > gov.candidate_cap()) {
      const int64_t cap = gov.candidate_cap();
      std::vector<int64_t> order(survivors.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int64_t>(i);
      }
      std::vector<double> ubs(survivors.size());
      for (size_t i = 0; i < survivors.size(); ++i) {
        ubs[i] = UpperBoundScore(context, sigma_eff, survivor_bounds[i]);
      }
      std::nth_element(order.begin(), order.begin() + cap, order.end(),
                       [&](int64_t a, int64_t b) {
                         if (ubs[a] != ubs[b]) return ubs[a] > ubs[b];
                         return a < b;
                       });
      order.resize(static_cast<size_t>(cap));
      std::sort(order.begin(), order.end());
      std::vector<int64_t> capped;
      std::vector<ParentBounds> capped_bounds;
      capped.reserve(order.size());
      capped_bounds.reserve(order.size());
      for (int64_t i : order) {
        capped.push_back(survivors[i]);
        capped_bounds.push_back(survivor_bounds[i]);
      }
      gov.RecordCapped(static_cast<int64_t>(survivors.size()) - cap);
      survivors = std::move(capped);
      survivor_bounds = std::move(capped_bounds);
    }
    CsrMatrix s_new = linalg::GatherRows(merged, survivors);
    stats.candidates = s_new.rows();

    // --- blocked slice evaluation: I = ((X S_b^T) == L) (Equation 10). ---
    const int64_t block = std::max(1, config.eval_block_size);
    LevelData next;
    next.s = s_new;
    next.ss.assign(static_cast<size_t>(s_new.rows()), 0.0);
    next.se.assign(static_cast<size_t>(s_new.rows()), 0.0);
    next.sm.assign(static_cast<size_t>(s_new.rows()), 0.0);
    bool stopped_mid_level = false;
    {
      TRACE_SPAN("la/evaluate", L);
      for (int64_t b0 = 0; b0 < s_new.rows(); b0 += block) {
        stop = gov.CheckBoundary();
        if (stop != StopReason::kNone) {
          stopped_mid_level = true;
          stopped_level = L;
          break;
        }
        const int64_t b1 = std::min<int64_t>(b0 + block, s_new.rows());
        const CsrMatrix sb = linalg::SliceRowRange(s_new, b0, b1);
        const CsrMatrix inter = linalg::FilterEquals(
            linalg::MultiplyABt(x, sb), static_cast<double>(L));
        const CsrMatrix inter_e = linalg::ScaleRows(inter, errors);
        const std::vector<double> bss = linalg::ColSums(inter);
        const std::vector<double> bse =
            linalg::ExactColSums(inter_e, layout);
        const std::vector<double> bsm = linalg::ColMaxs(inter_e);
        for (int64_t j = 0; j < b1 - b0; ++j) {
          next.ss[b0 + j] = bss[j];
          next.se[b0 + j] = bse[j];
          next.sm[b0 + j] = bsm[j];
        }
      }
    }
    // A level interrupted mid-evaluation is discarded wholesale: the
    // frontier stays at the last completed level, so a checkpointed resume
    // re-evaluates the whole level instead of trusting partial statistics.
    if (stopped_mid_level) break;

    // --- top-K maintenance. ---
    for (int64_t i = 0; i < s_new.rows(); ++i) {
      const int64_t size = static_cast<int64_t>(next.ss[i]);
      if (size >= sigma && next.se[i] > 0.0) ++stats.valid;
      const double score = context.Score(size, next.se[i]);
      if (score > 0.0 && size >= sigma) {
        Slice slice;
        slice.predicates = DecodeRow(s_new, i, kept_cols, offsets);
        slice.stats = {score, next.se[i], next.sm[i], size};
        topk.Offer(std::move(slice));
      }
    }
    stats.seconds = level_watch.ElapsedSeconds();
    obs::RecordLevelMetrics("la", stats.level, stats.candidates, stats.valid,
                            stats.pruned, stats.seconds);
    result.levels.push_back(stats);
    result.total_evaluated += stats.candidates;
    level = std::move(next);
    if (checkpointing) save_checkpoint(L);
  }

  result.outcome = gov.Finish(stop, stopped_level, resumed);
  result.top_k = topk.Slices();
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

StatusOr<SliceLineResult> RunSliceLineLA(const data::EncodedDataset& dataset,
                                         const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckHasErrors(dataset));
  return RunSliceLineLA(dataset.x0, dataset.errors, config);
}

}  // namespace sliceline::core
