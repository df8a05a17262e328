#include "core/candidates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
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
  // The prefix siblings ab, ac form abc once; bc is looked up.
  ASSERT_EQ(cands.size(), 1);
  EXPECT_EQ(gen.pairs, 1);
  EXPECT_EQ(gen.duplicates, 0);
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

TEST(CandidatesTest, FilteredNonPrefixParentDropsTheKey) {
  data::FeatureOffsets offsets = MakeOffsets();
  ScoringContext ctx(1000, 100.0, 0.95);
  // abc's prefix siblings ab, ac pass their pair bound; its third parent bc
  // is present and valid but fails its own bound.
  SliceSet prev;
  EvalResult stats;
  prev.Add({0, 2});
  prev.Add({0, 4});
  prev.Add({2, 4});
  stats.sizes = {100, 90, 80};
  stats.error_sums = {30, 40, 20};
  stats.max_errors = {1.0, 2.0, 0.5};
  ParentBounds bc;
  bc.AddParent(80, 20, 0.5);
  const double threshold = UpperBoundScore(ctx, 10, bc);
  ParentBounds ab_ac;
  ab_ac.AddParent(100, 30, 1.0);
  ab_ac.AddParent(90, 40, 2.0);
  ASSERT_GT(UpperBoundScore(ctx, 10, ab_ac), threshold);
  SliceLineConfig config;
  std::vector<ParentBounds> bounds;
  CandidateGenStats gen;
  SliceSet cands = GeneratePairCandidates(prev, stats, 3, ctx, 10, threshold,
                                          config, offsets, &bounds, &gen);
  EXPECT_EQ(cands.size(), 0);
  EXPECT_EQ(gen.parents_filtered, 1);
  EXPECT_EQ(gen.pairs, 1);
  EXPECT_EQ(gen.pair_rejected, 0);
  EXPECT_EQ(gen.candidate_rejected, 1);
  EXPECT_EQ(gen.pruned, 1);

  // Just below bc's bound, all three parents are kept and abc survives.
  cands = GeneratePairCandidates(prev, stats, 3, ctx, 10, threshold - 1e-9,
                                 config, offsets, &bounds, &gen);
  ASSERT_EQ(cands.size(), 1);
  EXPECT_EQ(bounds[0].parents, 3);
  EXPECT_EQ(gen.candidate_rejected, 0);
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

/// The default path's counters (parent pruning and deduplication on) by
/// brute force: every pair of kept parents (valid, own bound passing) that
/// share their first L-2 columns, with a map lookup of the key's other
/// parents. Needs distinct parents, as a deduplicated level holds.
CandidateGenStats ReferencePrefixCounts(const SliceSet& prev,
                                        const EvalResult& ps, int level,
                                        const ScoringContext& context,
                                        int64_t sigma, double threshold,
                                        const SliceLineConfig& config,
                                        const data::FeatureOffsets& offsets) {
  auto fails = [&](const ParentBounds& b) {
    if (config.prune_size && b.size_ub < sigma) return true;
    const double ub = UpperBoundScore(context, sigma, b);
    return config.prune_score && !(ub > threshold && ub >= 0.0);
  };
  auto add = [&](ParentBounds* bounds, int32_t parent) {
    bounds->AddParent(static_cast<int64_t>(ps.sizes[parent]),
                      ps.error_sums[parent], ps.max_errors[parent]);
  };
  CandidateGenStats gen;
  std::map<std::vector<int64_t>, int32_t> kept;
  for (int32_t i = 0; i < prev.size(); ++i) {
    const bool size_ok = !config.prune_size || ps.sizes[i] >= sigma;
    if (prev.Length(i) != level - 1 || !size_ok || !(ps.error_sums[i] > 0.0)) {
      continue;
    }
    ParentBounds own;
    add(&own, i);
    if (fails(own)) {
      ++gen.parents_filtered;
    } else {
      kept.emplace(std::vector<int64_t>(prev.Columns(i),
                                        prev.Columns(i) + level - 1), i);
    }
  }
  for (auto x = kept.begin(); x != kept.end(); ++x) {
    for (auto y = std::next(x); y != kept.end(); ++y) {
      const std::vector<int64_t>& a = x->first;
      const std::vector<int64_t>& b = y->first;
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) continue;
      ++gen.pairs;
      if (offsets.FeatureOfColumn(a.back()) ==
          offsets.FeatureOfColumn(b.back())) {
        continue;
      }
      ParentBounds bounds;
      add(&bounds, x->second);
      add(&bounds, y->second);
      if (fails(bounds)) {
        ++gen.pair_rejected;
        continue;
      }
      std::vector<int64_t> key = a;
      key.push_back(b.back());
      bool complete = true;
      for (int skip = 0; complete && skip < level - 2; ++skip) {
        std::vector<int64_t> parent = key;
        parent.erase(parent.begin() + skip);
        const auto it = kept.find(parent);
        complete = it != kept.end();
        if (complete) add(&bounds, it->second);
      }
      gen.candidate_rejected += !complete || fails(bounds);
    }
  }
  gen.pruned = gen.pair_rejected + gen.candidate_rejected;
  return gen;
}

/// Appends `columns` with random consistent stats: se <= ss * sm, sm <= 1.
void AddRandomSlice(Rng* rng, const std::vector<int64_t>& columns,
                    SliceSet* prev, EvalResult* stats) {
  const double size = static_cast<double>(rng->NextUint64(400) + 1);
  const double max_error = rng->NextBool(0.1) ? 0.0 : rng->NextDouble();
  prev->Add(columns);
  stats->sizes.push_back(size);
  stats->max_errors.push_back(max_error);
  stats->error_sums.push_back(max_error * size * rng->NextDouble());
}

/// A random frontier of level-(L-1) slices over `domains`, from `draws`
/// random draws. With `copies`, some slices appear twice (as a level
/// evaluated without deduplication holds them).
void RandomFrontier(Rng* rng, const data::FeatureOffsets& offsets, int level,
                    int draws, bool copies, SliceSet* prev,
                    EvalResult* stats) {
  const int m = offsets.num_features();
  std::set<std::vector<int64_t>> seen;
  for (int draw = 0; draw < draws; ++draw) {
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
    if (!seen.insert(columns).second && !(copies && rng->NextBool(0.3))) {
      continue;
    }
    AddRandomSlice(rng, columns, prev, stats);
  }
}

/// A level-1 frontier holding every column once in random order (and, with
/// `copies`, a tenth of them twice).
void EveryColumnFrontier(Rng* rng, const data::FeatureOffsets& offsets,
                         bool copies, SliceSet* prev, EvalResult* stats) {
  std::vector<int64_t> columns(static_cast<size_t>(offsets.total));
  std::iota(columns.begin(), columns.end(), 0);
  for (int64_t i = offsets.total - 1; i > 0; --i) {
    std::swap(columns[i], columns[rng->NextUint64(i + 1)]);
  }
  for (int64_t c : columns) {
    AddRandomSlice(rng, {c}, prev, stats);
    if (copies && rng->NextBool(0.1)) AddRandomSlice(rng, {c}, prev, stats);
  }
}

/// A level-2 frontier of long prefix groups whose level-3 keys mostly lack
/// their third parent. Each column x of feature 0 pairs with most columns of
/// the other features, so x's group is long. Pairs of two other features
/// are rare, and none starts with feature 1's first column: a key
/// (x, that column, z) looks for its third parent in a group that does not
/// exist. With `copies`, a tenth of the slices appear twice.
void SparseThirdParentFrontier(Rng* rng, const data::FeatureOffsets& offsets,
                               bool copies, SliceSet* prev,
                               EvalResult* stats) {
  const int64_t lonely = offsets.ColumnOf(1, 1);
  std::vector<std::vector<int64_t>> slices;
  for (int32_t x = 1; x <= offsets.fdom[0]; ++x) {
    for (int64_t y = offsets.fb[1]; y < offsets.total; ++y) {
      if (rng->NextBool(0.95)) slices.push_back({offsets.ColumnOf(0, x), y});
    }
  }
  for (int64_t y = offsets.fb[1]; y < offsets.total; ++y) {
    for (int64_t z = y + 1; z < offsets.total; ++z) {
      if (y != lonely &&
          offsets.FeatureOfColumn(y) != offsets.FeatureOfColumn(z) &&
          rng->NextBool(0.1)) {
        slices.push_back({y, z});
      }
    }
  }
  for (size_t i = slices.size() - 1; i > 0; --i) {
    std::swap(slices[i], slices[rng->NextUint64(i + 1)]);
  }
  for (const std::vector<int64_t>& columns : slices) {
    AddRandomSlice(rng, columns, prev, stats);
    if (copies && rng->NextBool(0.1)) AddRandomSlice(rng, columns, prev, stats);
  }
}

/// The frontiers the generator is checked on:
///   * small domains at levels 2-5 (level 5 looks up three parents per key);
///   * wide ones of at least 512 parents at levels 2, 3 and 4, so that
///     prefix groups straddle the boundaries of the parallel ranges;
///   * long level-3 prefix groups whose keys mostly miss their third parent,
///     one of whose prefixes has no group at all.
/// kEveryColumn takes every column once: most of its pairs share feature 0,
/// which keeps the reference join fast.
enum class FrontierKind { kRandom, kEveryColumn, kSparseThirdParents };

struct FrontierShape {
  FrontierKind kind;
  std::vector<int32_t> domains;
  int level;
  int draws;  ///< random draws of a kRandom frontier
  uint64_t seed;
  bool wide;  ///< at least 512 parents
};

std::vector<FrontierShape> FrontierShapes() {
  using enum FrontierKind;
  const std::vector<int32_t> small = {2, 3, 2, 3, 2, 2};
  return {{kRandom, small, 2, 400, 200, false},
          {kRandom, small, 3, 400, 300, false},
          {kRandom, small, 4, 400, 400, false},
          {kRandom, small, 5, 400, 500, false},
          {kEveryColumn, {500, 12, 12}, 2, 0, 1200, true},
          {kRandom, {8, 8, 8, 8, 8, 8}, 3, 900, 1300, true},
          {kRandom, {4, 4, 4, 4, 4, 4}, 4, 900, 1400, true},
          {kSparseThirdParents, {64, 8, 8, 8}, 3, 0, 1500, true}};
}

void MakeFrontier(const FrontierShape& shape,
                  const data::FeatureOffsets& offsets, Rng* rng, bool copies,
                  SliceSet* prev, EvalResult* stats) {
  switch (shape.kind) {
    case FrontierKind::kRandom:
      RandomFrontier(rng, offsets, shape.level, shape.draws, copies, prev,
                     stats);
      break;
    case FrontierKind::kEveryColumn:
      EveryColumnFrontier(rng, offsets, copies, prev, stats);
      break;
    case FrontierKind::kSparseThirdParents:
      SparseThirdParentFrontier(rng, offsets, copies, prev, stats);
      break;
  }
}

TEST(CandidatesTest, MatchesReferenceGeneratorUnderEveryAblation) {
  const ScoringContext context(1000, 100.0, 0.95);
  const int64_t sigma = 8;
  for (const FrontierShape& shape : FrontierShapes()) {
    const data::FeatureOffsets offsets =
        data::OffsetsFromDomains(shape.domains);
    const int level = shape.level;
    for (int mask = 0; mask < 16; ++mask) {
      SliceLineConfig config;
      config.prune_size = (mask & 1) != 0;
      config.prune_score = (mask & 2) != 0;
      config.prune_parents = (mask & 4) != 0;
      config.deduplicate = (mask & 8) != 0;
      Rng rng(shape.seed + static_cast<uint64_t>(mask));
      SliceSet prev;
      EvalResult stats;
      MakeFrontier(shape, offsets, &rng, !config.deduplicate, &prev, &stats);
      const bool wide = shape.wide;
      if (wide) {
        ASSERT_GE(prev.size(), 512);
      }
      // A top-K-like threshold: the median single-parent bound.
      std::vector<double> ubs;
      for (int32_t i = 0; i < prev.size(); ++i) {
        ParentBounds own;
        own.AddParent(static_cast<int64_t>(stats.sizes[i]),
                      stats.error_sums[i], stats.max_errors[i]);
        ubs.push_back(UpperBoundScore(context, sigma, own));
      }
      std::nth_element(ubs.begin(), ubs.begin() + ubs.size() / 2, ubs.end());
      // Wide random frontiers take only the median: their reference join
      // costs ~10^5 pairs per call. The sparse one is cheap, and its groups
      // are longest at the low thresholds.
      std::vector<double> thresholds = {ubs[ubs.size() / 2]};
      if (!wide || shape.kind == FrontierKind::kSparseThirdParents) {
        thresholds.insert(thresholds.begin(),
                          {-std::numeric_limits<double>::infinity(), 0.0});
      }
      for (double threshold : thresholds) {
        std::vector<ParentBounds> want_bounds;
        CandidateGenStats want_gen;
        const SliceSet want =
            ReferenceGenerate(prev, stats, level, context, sigma, threshold,
                              config, offsets, &want_bounds, &want_gen);
        if (config.prune_parents && config.deduplicate) {
          want_gen = ReferencePrefixCounts(prev, stats, level, context, sigma,
                                           threshold, config, offsets);
        }
        for (size_t threads : {1, 2, 4}) {
          ResizeGlobalThreadPoolForTesting(threads);
          SCOPED_TRACE(testing::Message()
                       << "domains=" << shape.domains.size() << "x"
                       << shape.domains[0] << " level=" << level
                       << " threads=" << threads << " mask=" << mask
                       << " threshold=" << threshold);
          std::vector<ParentBounds> got_bounds;
          CandidateGenStats got_gen;
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
          EXPECT_EQ(got_gen.pruned,
                    got_gen.pair_rejected + got_gen.candidate_rejected);
          if (config.prune_parents && config.deduplicate) {
            // The prefix join: exact counters, each key formed once.
            EXPECT_EQ(got_gen.parents_filtered, want_gen.parents_filtered);
            EXPECT_EQ(got_gen.pairs, want_gen.pairs);
            EXPECT_EQ(got_gen.duplicates, 0);
            EXPECT_EQ(got_gen.pair_rejected, want_gen.pair_rejected);
            EXPECT_EQ(got_gen.candidate_rejected, want_gen.candidate_rejected);
          } else {
            EXPECT_EQ(got_gen.duplicates, want_gen.duplicates);
            EXPECT_LE(got_gen.pairs, want_gen.pairs);
            EXPECT_LE(got_gen.pruned, want_gen.pruned);
          }
        }
      }
    }
  }
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(CandidatesTest, ShuffledFrontierMatchesSortedOne) {
  const ScoringContext context(1000, 100.0, 0.95);
  for (const FrontierShape& shape : FrontierShapes()) {
    const data::FeatureOffsets offsets =
        data::OffsetsFromDomains(shape.domains);
    Rng rng(shape.seed);
    SliceSet shuffled;
    EvalResult shuffled_stats;
    MakeFrontier(shape, offsets, &rng, false, &shuffled, &shuffled_stats);
    std::vector<int32_t> order(static_cast<size_t>(shuffled.size()));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
      return std::lexicographical_compare(
          shuffled.Columns(x), shuffled.Columns(x) + shape.level - 1,
          shuffled.Columns(y), shuffled.Columns(y) + shape.level - 1);
    });
    ASSERT_FALSE(std::is_sorted(order.begin(), order.end()));
    SliceSet sorted;
    EvalResult sorted_stats;
    for (int32_t i : order) {
      sorted.Add(shuffled.Columns(i), shuffled.Columns(i) + shape.level - 1);
      sorted_stats.sizes.push_back(shuffled_stats.sizes[i]);
      sorted_stats.error_sums.push_back(shuffled_stats.error_sums[i]);
      sorted_stats.max_errors.push_back(shuffled_stats.max_errors[i]);
    }
    const SliceLineConfig config;
    std::vector<ParentBounds> want_bounds;
    std::vector<ParentBounds> got_bounds;
    CandidateGenStats want_gen;
    CandidateGenStats got_gen;
    const SliceSet want = GeneratePairCandidates(
        sorted, sorted_stats, shape.level, context, 8, 0.0, config, offsets,
        &want_bounds, &want_gen);
    const SliceSet got = GeneratePairCandidates(
        shuffled, shuffled_stats, shape.level, context, 8, 0.0, config,
        offsets, &got_bounds, &got_gen);
    SCOPED_TRACE(testing::Message() << "level=" << shape.level);
    ASSERT_EQ(got.size(), want.size());
    for (int64_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(std::equal(got.Columns(i), got.Columns(i) + shape.level,
                             want.Columns(i)));
    }
    EXPECT_TRUE(got_bounds == want_bounds);
    EXPECT_EQ(got_gen.pairs, want_gen.pairs);
    EXPECT_EQ(got_gen.pruned, want_gen.pruned);
  }
}

}  // namespace
}  // namespace sliceline::core
