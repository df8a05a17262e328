#include "core/candidates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace sliceline::core {
namespace {

/// Fixture: 3 features, domains {2, 2, 2} -> one-hot columns 0..5.
data::FeatureOffsets MakeOffsets() {
  data::IntMatrix x0(2, 3);
  for (int j = 0; j < 3; ++j) {
    x0.At(0, j) = 1;
    x0.At(1, j) = 2;
  }
  return data::ComputeOffsets(x0);
}

/// Basic level-1 slices on columns {0, 2, 4} (feature 0=1, 1=1, 2=1) with
/// the given sizes/errors.
void AddBasic(SliceSet* set, EvalResult* stats, int64_t col, double ss,
              double se, double sm) {
  set->Add({col});
  stats->sizes.push_back(ss);
  stats->error_sums.push_back(se);
  stats->max_errors.push_back(sm);
}

TEST(CandidatesTest, LevelTwoJoinsDifferentFeatures) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  AddBasic(&prev, &stats, 0, 500, 60, 1.0);  // feature 0
  AddBasic(&prev, &stats, 1, 500, 50, 1.0);  // feature 0 (other code)
  AddBasic(&prev, &stats, 2, 400, 70, 1.0);  // feature 1
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  CandidateGenStats gen;
  SliceSet cands = GeneratePairCandidates(prev, stats, 2, ctx, 10, 0.0,
                                          config, offsets, &bounds, &gen);
  // Pairs (0,2) and (1,2) are cross-feature; (0,1) same feature -> invalid.
  EXPECT_EQ(cands.size(), 2);
  EXPECT_EQ(gen.pairs, 3);
  for (int64_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(bounds[i].parents, 2);
    EXPECT_EQ(cands.Length(i), 2);
  }
  // Bounds are the parent minima.
  EXPECT_EQ(bounds[0].size_ub, 400);
  EXPECT_DOUBLE_EQ(bounds[0].error_ub, 60.0);
}

TEST(CandidatesTest, SizePruningFiltersParentsAndCandidates) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  AddBasic(&prev, &stats, 0, 5, 4, 1.0);    // below sigma = 10
  AddBasic(&prev, &stats, 2, 400, 70, 1.0);
  AddBasic(&prev, &stats, 4, 300, 50, 1.0);
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  SliceSet cands = GeneratePairCandidates(prev, stats, 2, ctx, 10, 0.0,
                                          config, offsets, &bounds, nullptr);
  // Only (2,4) survives: slice with col 0 has support below sigma.
  ASSERT_EQ(cands.size(), 1);
  EXPECT_EQ(cands.Columns(0)[0], 2);
  EXPECT_EQ(cands.Columns(0)[1], 4);

  // With size pruning disabled the small parent participates again.
  config.prune_size = false;
  config.prune_score = false;  // its children cannot score positively
  SliceSet all = GeneratePairCandidates(prev, stats, 2, ctx, 10, 0.0, config,
                                        offsets, &bounds, nullptr);
  EXPECT_EQ(all.size(), 3);
}

TEST(CandidatesTest, ZeroErrorParentExcluded) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  AddBasic(&prev, &stats, 0, 500, 0.0, 0.0);  // zero error
  AddBasic(&prev, &stats, 2, 400, 70, 1.0);
  AddBasic(&prev, &stats, 4, 300, 50, 1.0);
  SliceLineConfig config;
  config.prune_score = false;
  std::vector<ParentBounds> bounds;
  SliceSet cands = GeneratePairCandidates(prev, stats, 2, ctx, 10, 0.0,
                                          config, offsets, &bounds, nullptr);
  ASSERT_EQ(cands.size(), 1);  // only (2,4)
}

TEST(CandidatesTest, LevelThreeDeduplicatesAndCountsParents) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  // Level-2 slices ab, ac, bc over columns a=0 (feat0), b=2 (feat1),
  // c=4 (feat2): all three parents of abc are present.
  SliceSet prev;
  EvalResult stats;
  prev.Add({0, 2});
  prev.Add({0, 4});
  prev.Add({2, 4});
  stats.sizes = {100, 90, 80};
  stats.error_sums = {30, 40, 20};
  stats.max_errors = {1.0, 2.0, 0.5};
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  CandidateGenStats gen;
  SliceSet cands = GeneratePairCandidates(prev, stats, 3, ctx, 10, 0.0,
                                          config, offsets, &bounds, &gen);
  // Three generating pairs merge into the single candidate abc.
  ASSERT_EQ(cands.size(), 1);
  EXPECT_EQ(gen.pairs, 3);
  EXPECT_EQ(gen.duplicates, 2);
  EXPECT_EQ(bounds[0].parents, 3);
  EXPECT_EQ(bounds[0].size_ub, 80);
  EXPECT_DOUBLE_EQ(bounds[0].error_ub, 20.0);
  EXPECT_DOUBLE_EQ(bounds[0].max_error_ub, 0.5);
  EXPECT_EQ(cands.Length(0), 3);
}

TEST(CandidatesTest, MissingParentPruning) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  // Only two of abc's three parents are enumerated: ab and ac.
  SliceSet prev;
  EvalResult stats;
  prev.Add({0, 2});
  prev.Add({0, 4});
  stats.sizes = {100, 90};
  stats.error_sums = {30, 40};
  stats.max_errors = {1.0, 2.0};
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  SliceSet pruned = GeneratePairCandidates(prev, stats, 3, ctx, 10, 0.0,
                                           config, offsets, &bounds, nullptr);
  EXPECT_EQ(pruned.size(), 0);  // np = 2 != L = 3

  config.prune_parents = false;
  SliceSet kept = GeneratePairCandidates(prev, stats, 3, ctx, 10, 0.0,
                                         config, offsets, &bounds, nullptr);
  ASSERT_EQ(kept.size(), 1);
  EXPECT_EQ(bounds[0].parents, 2);
}

TEST(CandidatesTest, NoDeduplicationKeepsMultiplicity) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  prev.Add({0, 2});
  prev.Add({0, 4});
  prev.Add({2, 4});
  stats.sizes = {100, 90, 80};
  stats.error_sums = {30, 40, 20};
  stats.max_errors = {1.0, 2.0, 0.5};
  SliceLineConfig config;
  config.deduplicate = false;
  config.prune_parents = false;  // per-pair candidates have only 2 parents
  std::vector<ParentBounds> bounds;
  SliceSet cands = GeneratePairCandidates(prev, stats, 3, ctx, 10, 0.0,
                                          config, offsets, &bounds, nullptr);
  EXPECT_EQ(cands.size(), 3);  // abc three times
}

TEST(CandidatesTest, ScoreThresholdPrunes) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  SliceSet prev;
  EvalResult stats;
  AddBasic(&prev, &stats, 0, 400, 50, 0.5);
  AddBasic(&prev, &stats, 2, 400, 50, 0.5);
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  // With an absurdly high current top-K threshold everything is pruned.
  SliceSet cands = GeneratePairCandidates(prev, stats, 2, ctx, 10, 1e12,
                                          config, offsets, &bounds, nullptr);
  EXPECT_EQ(cands.size(), 0);
  // Without score pruning the candidate survives.
  config.prune_score = false;
  cands = GeneratePairCandidates(prev, stats, 2, ctx, 10, 1e12, config,
                                 offsets, &bounds, nullptr);
  EXPECT_EQ(cands.size(), 1);
}

// -- Equivalence against the reference generator ---------------------------

/// Reference generator: the hash-map algorithm GeneratePairCandidates
/// replaced. It joins every pair of valid parents (no per-parent bound
/// filter), accumulates candidates in maps keyed by column vector, and
/// emits them in sorted key order (pair order without deduplication).
struct RefCandidate {
  ParentBounds bounds;
  std::vector<int32_t> parent_ids;
};

struct VecHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (int64_t c : key) h = (h ^ static_cast<uint64_t>(c)) * 1099511628211ULL;
    return static_cast<size_t>(h);
  }
};

SliceSet ReferenceGenerate(const SliceSet& prev, const EvalResult& ps,
                           int level, const ScoringContext& context,
                           int64_t sigma, double threshold,
                           const SliceLineConfig& config,
                           const data::FeatureOffsets& offsets,
                           std::vector<ParentBounds>* bounds_out,
                           CandidateGenStats* gen) {
  const int64_t parent_len = level - 1;
  std::vector<int32_t> valid;
  for (int32_t i = 0; i < prev.size(); ++i) {
    const bool size_ok = !config.prune_size || ps.sizes[i] >= sigma;
    if (prev.Length(i) == parent_len && size_ok && ps.error_sums[i] > 0.0) {
      valid.push_back(i);
    }
  }
  auto add = [&](RefCandidate* cand, int32_t parent) {
    cand->parent_ids.push_back(parent);
    cand->bounds.AddParent(static_cast<int64_t>(ps.sizes[parent]),
                           ps.error_sums[parent], ps.max_errors[parent]);
  };
  auto fails = [&](const ParentBounds& b) {
    if (config.prune_size && b.size_ub < sigma) return true;
    const double ub = UpperBoundScore(context, sigma, b);
    return config.prune_score && !(ub > threshold && ub >= 0.0);
  };
  auto same_columns = [&](int32_t a, int32_t b) {
    return std::equal(prev.Columns(a), prev.Columns(a) + parent_len,
                      prev.Columns(b));
  };
  std::unordered_map<std::vector<int64_t>, RefCandidate, VecHash> dedup;
  std::unordered_map<std::vector<int64_t>, RefCandidate, VecHash> groups;
  std::vector<std::pair<std::vector<int64_t>, RefCandidate>> nodedup;
  auto visit = [&](int32_t s1, int32_t s2) {
    const int64_t* c1 = prev.Columns(s1);
    const int64_t* c2 = prev.Columns(s2);
    std::vector<int64_t> merged(c1, c1 + parent_len);
    merged.insert(merged.end(), c2, c2 + parent_len);
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    ++gen->pairs;
    RefCandidate pair;
    add(&pair, s1);
    add(&pair, s2);
    if (fails(pair.bounds)) {
      ++gen->pruned;
      return;
    }
    if (static_cast<int>(merged.size()) != level) return;
    bool one_per_feature = true;
    for (int k = 1; k < level; ++k) {
      one_per_feature &= offsets.FeatureOfColumn(merged[k - 1]) !=
                         offsets.FeatureOfColumn(merged[k]);
    }
    if (!one_per_feature) return;
    if (config.deduplicate) {
      auto [it, inserted] = dedup.try_emplace(merged);
      if (!inserted) ++gen->duplicates;
      for (int32_t s : {s1, s2}) {
        const auto& ids = it->second.parent_ids;
        if (std::find(ids.begin(), ids.end(), s) == ids.end()) {
          add(&it->second, s);
        }
      }
    } else {
      RefCandidate& group = groups[merged];
      for (int32_t s : {s1, s2}) {
        if (std::none_of(group.parent_ids.begin(), group.parent_ids.end(),
                         [&](int32_t e) { return same_columns(e, s); })) {
          add(&group, s);
        }
      }
      nodedup.emplace_back(merged, std::move(pair));
    }
  };
  // Pair order: outer parent ascending; at level >= 3 the partners of one
  // outer parent come in first-touch order of the inverted-index walk.
  const int32_t p = static_cast<int32_t>(valid.size());
  std::vector<std::vector<int32_t>> column_index(
      static_cast<size_t>(offsets.total));
  for (int32_t a = 0; a < p; ++a) {
    for (int64_t k = 0; k < parent_len; ++k) {
      column_index[prev.Columns(valid[a])[k]].push_back(a);
    }
  }
  std::vector<int32_t> overlap(static_cast<size_t>(p), 0);
  for (int32_t a = 0; a < p; ++a) {
    if (level == 2) {
      for (int32_t b = a + 1; b < p; ++b) visit(valid[a], valid[b]);
      continue;
    }
    std::vector<int32_t> touched;
    for (int64_t k = 0; k < parent_len; ++k) {
      for (int32_t b : column_index[prev.Columns(valid[a])[k]]) {
        if (b > a && overlap[b]++ == 0) touched.push_back(b);
      }
    }
    for (int32_t b : touched) {
      if (overlap[b] == level - 2) visit(valid[a], valid[b]);
      overlap[b] = 0;
    }
  }
  SliceSet out;
  bounds_out->clear();
  auto finalize = [&](const std::vector<int64_t>& columns,
                      const ParentBounds& bounds, int np) {
    if (fails(bounds) || (config.prune_parents && np != level)) {
      ++gen->pruned;
      return;
    }
    out.Add(columns);
    bounds_out->push_back(bounds);
  };
  if (config.deduplicate) {
    std::vector<std::vector<int64_t>> keys;
    for (const auto& entry : dedup) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    for (const auto& key : keys) {
      const ParentBounds& bounds = dedup[key].bounds;
      finalize(key, bounds, bounds.parents);
    }
  } else {
    for (const auto& [columns, cand] : nodedup) {
      finalize(columns, cand.bounds, groups[columns].bounds.parents);
    }
  }
  return out;
}

/// A random frontier of level-(L-1) slices over `domains`. With `copies`,
/// some slices appear twice (as a level evaluated without deduplication
/// holds them); stats are consistent: se <= ss * sm and sm <= 1.
void RandomFrontier(Rng* rng, const data::FeatureOffsets& offsets, int level,
                    bool copies, SliceSet* prev, EvalResult* stats) {
  const int m = offsets.num_features();
  for (int draw = 0; draw < 400; ++draw) {
    std::vector<int> features(static_cast<size_t>(m));
    for (int f = 0; f < m; ++f) features[f] = f;
    for (int f = m - 1; f > 0; --f) {
      std::swap(features[f], features[rng->NextUint64(f + 1)]);
    }
    std::vector<int64_t> columns;
    for (int k = 0; k < level - 1; ++k) {
      const int f = features[k];
      columns.push_back(offsets.ColumnOf(
          f, static_cast<int32_t>(rng->NextUint64(offsets.fdom[f])) + 1));
    }
    std::sort(columns.begin(), columns.end());
    bool seen = false;
    for (int64_t i = 0; i < prev->size() && !seen; ++i) {
      seen = std::equal(columns.begin(), columns.end(), prev->Columns(i));
    }
    if (seen && !(copies && rng->NextBool(0.3))) continue;
    const double size = static_cast<double>(rng->NextUint64(400) + 1);
    const double max_error = rng->NextBool(0.1) ? 0.0 : rng->NextDouble();
    prev->Add(columns);
    stats->sizes.push_back(size);
    stats->max_errors.push_back(max_error);
    stats->error_sums.push_back(max_error * size * rng->NextDouble());
  }
}

TEST(CandidatesTest, MatchesReferenceGeneratorUnderEveryAblation) {
  const data::FeatureOffsets offsets =
      data::OffsetsFromDomains({2, 3, 2, 3, 2, 2});
  const ScoringContext context(1000, 100.0, 0.95);
  const int64_t sigma = 8;
  for (size_t threads : {1, 2, 4}) {
    ResizeGlobalThreadPoolForTesting(threads);
    for (int level = 2; level <= 4; ++level) {
      for (int mask = 0; mask < 16; ++mask) {
        SliceLineConfig config;
        config.prune_size = (mask & 1) != 0;
        config.prune_score = (mask & 2) != 0;
        config.prune_parents = (mask & 4) != 0;
        config.deduplicate = (mask & 8) != 0;
        Rng rng(static_cast<uint64_t>(100 * level + mask));
        SliceSet prev;
        EvalResult stats;
        RandomFrontier(&rng, offsets, level, !config.deduplicate, &prev,
                       &stats);
        // A top-K-like threshold: the median single-parent bound.
        std::vector<double> ubs;
        for (int32_t i = 0; i < prev.size(); ++i) {
          ParentBounds own;
          own.AddParent(static_cast<int64_t>(stats.sizes[i]),
                        stats.error_sums[i], stats.max_errors[i]);
          ubs.push_back(UpperBoundScore(context, sigma, own));
        }
        std::nth_element(ubs.begin(), ubs.begin() + ubs.size() / 2, ubs.end());
        for (double threshold : {-std::numeric_limits<double>::infinity(), 0.0,
                                 ubs[ubs.size() / 2]}) {
          SCOPED_TRACE(testing::Message()
                       << "threads=" << threads << " level=" << level
                       << " mask=" << mask << " threshold=" << threshold);
          std::vector<ParentBounds> want_bounds;
          std::vector<ParentBounds> got_bounds;
          CandidateGenStats want_gen;
          CandidateGenStats got_gen;
          const SliceSet want =
              ReferenceGenerate(prev, stats, level, context, sigma, threshold,
                                config, offsets, &want_bounds, &want_gen);
          const SliceSet got = GeneratePairCandidates(
              prev, stats, level, context, sigma, threshold, config, offsets,
              &got_bounds, &got_gen);
          ASSERT_EQ(got.size(), want.size());
          for (int64_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got.Length(i), want.Length(i));
            ASSERT_TRUE(std::equal(got.Columns(i), got.Columns(i) + level,
                                   want.Columns(i)))
                << "candidate " << i;
          }
          EXPECT_TRUE(got_bounds == want_bounds);
          EXPECT_EQ(got_gen.duplicates, want_gen.duplicates);
          EXPECT_LE(got_gen.pairs, want_gen.pairs);
          EXPECT_LE(got_gen.pruned, want_gen.pruned);
        }
      }
    }
  }
  ResizeGlobalThreadPoolForTesting(0);
}

}  // namespace
}  // namespace sliceline::core
