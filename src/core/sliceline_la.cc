#include "core/sliceline_la.h"

#include <algorithm>
#include <unordered_map>

#include "common/run_context.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/sliceline.h"
#include "data/column_store.h"
#include "data/onehot.h"
#include "linalg/kernels.h"
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

/// The one-hot X of Algorithm 1 (lines 1-12) and its blocked evaluation
/// (Section 4.4): I = ((X S_b^T) == L), ss = colSums(I),
/// se = colSums(I * e) and sm = colMaxs(I * e). X keeps only the columns
/// cI of the basic slices the driver keeps (line 12, X <- X[, cI]), and S
/// is compacted the same way before every product; candidates are built
/// from kept slices only, so none loses a column. Error sums are exact in
/// the errors' SumLayout, rounded once.
class LaBackend : public EvaluatorBackend {
 public:
  LaBackend(const data::IntMatrix& x0, data::FeatureOffsets offsets,
            const std::vector<double>& errors, const SliceLineConfig& config)
      : offsets_(std::move(offsets)), errors_(errors) {
    data::ErrorGrid grid;
    linalg::ExactSum total;
    for (double e : errors) {
      grid.Add(e);
      total.Add(e);
    }
    total_error_ = total.ToDouble();
    layout_ = grid.layout();
    const CsrMatrix x = data::OneHotEncode(x0, offsets_);
    for (double size : linalg::ColSums(x)) {
      ss0_.push_back(static_cast<int64_t>(size));
    }
    const CsrMatrix xe = linalg::ScaleRows(x, errors);
    se0_ = linalg::ExactColSums(xe, layout_);
    sm0_ = linalg::ColMaxs(xe);
    // The driver's level-1 keep rule.
    const int64_t sigma = ResolveMinSupport(config, x.rows());
    for (int64_t c = 0; c < offsets_.total; ++c) {
      if ((!config.prune_size || ss0_[c] >= sigma) && se0_[c] > 0.0) {
        kept_.push_back(c);
      }
    }
    x_ = linalg::SelectColumns(x, kept_);
  }

  /// Every slice of `set` must have the same length L, as the level-wise
  /// driver's sets do. Polls config.run_context before every block of
  /// config.eval_block_size slices.
  StatusOr<EvalResult> Evaluate(const SliceSet& set,
                                const SliceLineConfig& config) const override {
    EvalResult out;
    if (set.size() == 0) return out;
    const int64_t level = set.Length(0);
    TRACE_SPAN("la/evaluate", level);
    const CsrMatrix s =
        linalg::SelectColumns(SliceSetToCsr(set, offsets_.total), kept_);
    const int64_t block = std::max(1, config.eval_block_size);
    for (int64_t b0 = 0; b0 < s.rows(); b0 += block) {
      if (config.run_context != nullptr) {
        const StopReason stop = config.run_context->CheckStop();
        if (stop != StopReason::kNone) return StopReasonToStatus(stop);
      }
      const CsrMatrix sb =
          linalg::SliceRowRange(s, b0, std::min(b0 + block, s.rows()));
      const CsrMatrix inter = linalg::FilterEquals(
          linalg::MultiplyABt(x_, sb), static_cast<double>(level));
      const CsrMatrix inter_e = linalg::ScaleRows(inter, errors_);
      const std::vector<double> bss = linalg::ColSums(inter);
      const std::vector<double> bse = linalg::ExactColSums(inter_e, layout_);
      const std::vector<double> bsm = linalg::ColMaxs(inter_e);
      out.sizes.insert(out.sizes.end(), bss.begin(), bss.end());
      out.error_sums.insert(out.error_sums.end(), bse.begin(), bse.end());
      out.max_errors.insert(out.max_errors.end(), bsm.begin(), bsm.end());
    }
    return out;
  }

  const std::vector<int64_t>& basic_sizes() const override { return ss0_; }
  const std::vector<double>& basic_error_sums() const override { return se0_; }
  const std::vector<double>& basic_max_errors() const override { return sm0_; }
  int64_t n() const override { return static_cast<int64_t>(errors_.size()); }
  double total_error() const override { return total_error_; }
  const data::FeatureOffsets& offsets() const override { return offsets_; }

 private:
  const data::FeatureOffsets offsets_;
  const std::vector<double>& errors_;
  std::vector<int64_t> kept_;  // cI
  CsrMatrix x_;                // X[, cI]
  linalg::SumLayout layout_;
  double total_error_ = 0.0;
  std::vector<int64_t> ss0_;
  std::vector<double> se0_;
  std::vector<double> sm0_;
};

/// getPairCandidates (Section 4.3) as linear algebra, with
/// GeneratePairCandidates' contract: filter valid parents, join them by
/// upper.tri((S S^T) == L-2), merge each pair by P = ((P1 S) + (P2 S)) != 0
/// with selection tables, drop keys with two predicates on one feature,
/// deduplicate by hashed slice identity while accumulating bounds over all
/// distinct parents (Equation 8), and apply the Equation 9 filter. The
/// candidates come out in the order of their first generating pair.
SliceSet GenerateLaCandidates(const SliceSet& prev,
                              const EvalResult& prev_stats, int level,
                              const ScoringContext& context, int64_t sigma,
                              double score_threshold,
                              const SliceLineConfig& config,
                              const data::FeatureOffsets& offsets,
                              std::vector<ParentBounds>* bounds_out,
                              CandidateGenStats* gen_stats) {
  const int L = level;
  CandidateGenStats stats;
  bounds_out->clear();
  auto report = [&] {
    stats.pruned = stats.candidate_rejected;
    if (gen_stats != nullptr) *gen_stats = stats;
  };
  std::vector<int> feat_of(static_cast<size_t>(offsets.total));
  for (int64_t c = 0; c < offsets.total; ++c) {
    feat_of[c] = offsets.FeatureOfColumn(c);
  }

  // --- filter valid parents. ---
  std::vector<uint8_t> keep(static_cast<size_t>(prev.size()), 0);
  std::vector<double> pss;
  std::vector<double> pse;
  std::vector<double> psm;
  for (int64_t i = 0; i < prev.size(); ++i) {
    const bool size_ok = !config.prune_size ||
                         prev_stats.sizes[i] >= static_cast<double>(sigma);
    if (size_ok && prev_stats.error_sums[i] > 0.0) {
      keep[i] = 1;
      pss.push_back(prev_stats.sizes[i]);
      pse.push_back(prev_stats.error_sums[i]);
      psm.push_back(prev_stats.max_errors[i]);
    }
  }
  const CsrMatrix s =
      linalg::SelectRows(SliceSetToCsr(prev, offsets.total), keep);
  const int64_t np_rows = s.rows();

  // --- join compatible pairs: upper.tri((S S^T) == L-2). ---
  std::vector<std::pair<int64_t, int64_t>> pairs;
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
  const int64_t num_pairs = static_cast<int64_t>(pairs.size());
  stats.pairs = num_pairs;
  if (pairs.empty()) {
    report();
    return SliceSet();
  }

  // --- merge pairs: P = ((P1 S) + (P2 S)) != 0 via selection tables. ---
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
  const CsrMatrix merged = linalg::Binarize(
      linalg::Add(linalg::Multiply(p1, s), linalg::Multiply(p2, s)));

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
          dedup.try_emplace(std::move(key), static_cast<int64_t>(groups.size()));
      if (inserted) {
        groups.push_back(Group{k, {}, {}});
      } else {
        ++stats.duplicates;
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

  // --- Equation 9 pruning. ---
  std::vector<int64_t> survivors;
  for (const Group& group : groups) {
    bool keep_group = true;
    if (config.prune_size && group.bounds.size_ub < sigma) {
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
    if (keep_group && config.prune_score &&
        !UpperBoundClears(context, sigma, group.bounds, score_threshold)) {
      keep_group = false;
    }
    if (!keep_group) {
      ++stats.candidate_rejected;
      continue;
    }
    survivors.push_back(group.representative);
    bounds_out->push_back(group.bounds);
  }
  report();
  return CsrToSliceSet(linalg::GatherRows(merged, survivors));
}

}  // namespace

StatusOr<SliceLineResult> RunSliceLineLA(const data::IntMatrix& x0,
                                         const std::vector<double>& errors,
                                         const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckInputs(x0, errors, config));
  SLICELINE_RETURN_NOT_OK(CheckErrors(errors));
  Stopwatch total_watch;
  TRACE_SPAN("la/run");
  SLICELINE_ASSIGN_OR_RETURN(data::FeatureOffsets offsets,
                             data::CheckedOffsets(x0));
  const LaBackend backend(x0, std::move(offsets), errors, config);
  StatusOr<SliceLineResult> result =
      RunLevelWise(backend, config, "la", GenerateLaCandidates);
  // The LA engine's time includes its one-hot preparation.
  if (result.ok()) result->total_seconds = total_watch.ElapsedSeconds();
  return result;
}

StatusOr<SliceLineResult> RunSliceLineLA(const data::EncodedDataset& dataset,
                                         const SliceLineConfig& config) {
  SLICELINE_RETURN_NOT_OK(CheckHasErrors(dataset));
  return RunSliceLineLA(dataset.x0, dataset.errors, config);
}

}  // namespace sliceline::core
