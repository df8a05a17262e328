#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sliceline.h"
#include "data/generators/generators.h"
#include "data/generators/planted_slices.h"

namespace sliceline::core {
namespace {

/// The Figure 3 ablation configurations, most- to least-pruned.
std::vector<SliceLineConfig> AblationConfigs() {
  SliceLineConfig all;                    // (1) all pruning
  SliceLineConfig no_parent = all;        // (2) no parent handling
  no_parent.prune_parents = false;
  SliceLineConfig no_score = no_parent;   // (3) + no score pruning
  no_score.prune_score = false;
  SliceLineConfig no_size = no_score;     // (4) + no size pruning
  no_size.prune_size = false;
  SliceLineConfig none = no_size;         // (5) + no deduplication
  none.deduplicate = false;
  return {all, no_parent, no_score, no_size, none};
}

data::EncodedDataset AblationDataset() {
  data::DatasetOptions opts;
  opts.rows = 397;
  return data::Replicate(data::MakeSalaries(opts), 2, 2);
}

TEST(AblationTest, AllConfigurationsFindTheSameTopK) {
  // Pruning is safe: disabling any pruning technique must not change the
  // returned top-K (only the amount of work).
  data::EncodedDataset ds = AblationDataset();
  std::vector<SliceLineConfig> configs = AblationConfigs();
  SliceLineConfig base = configs[0];
  base.k = 4;
  base.max_level = 4;  // keep the unpruned variants tractable
  auto reference = RunSliceLine(ds, base);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->top_k.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    SliceLineConfig config = configs[c];
    config.k = 4;
    config.max_level = 4;
    auto result = RunSliceLine(ds, config);
    ASSERT_TRUE(result.ok()) << "config " << c;
    ASSERT_EQ(result->top_k.size(), reference->top_k.size()) << "config " << c;
    for (size_t i = 0; i < reference->top_k.size(); ++i) {
      EXPECT_EQ(result->top_k[i].stats.score, reference->top_k[i].stats.score)
          << "config " << c << " rank " << i;
    }
  }
}

TEST(AblationTest, MorePruningNeverEnumeratesMore) {
  data::EncodedDataset ds = AblationDataset();
  std::vector<SliceLineConfig> configs = AblationConfigs();
  int64_t prev_total = -1;
  for (size_t c = 0; c < configs.size(); ++c) {
    SliceLineConfig config = configs[c];
    config.k = 4;
    config.max_level = 4;
    auto result = RunSliceLine(ds, config);
    ASSERT_TRUE(result.ok());
    if (prev_total >= 0) {
      EXPECT_GE(result->total_evaluated, prev_total)
          << "config " << c << " should enumerate at least as much as "
          << c - 1;
    }
    prev_total = result->total_evaluated;
  }
}

TEST(AblationTest, DeduplicationShrinksDeeperLevels) {
  data::EncodedDataset ds = AblationDataset();
  SliceLineConfig with_dedup;
  with_dedup.max_level = 3;
  with_dedup.prune_parents = false;
  with_dedup.prune_score = false;
  with_dedup.prune_size = false;
  SliceLineConfig without = with_dedup;
  without.deduplicate = false;
  auto a = RunSliceLine(ds, with_dedup);
  auto b = RunSliceLine(ds, without);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_GE(a->levels.size(), 3u);
  ASSERT_GE(b->levels.size(), 3u);
  // At level 3 each slice has up to 3 generating pairs; without dedup the
  // candidate count must be strictly larger.
  EXPECT_GT(b->levels[2].candidates, a->levels[2].candidates);
}

TEST(AblationTest, ScorePruningReducesWorkOnPlantedData) {
  data::DatasetOptions opts;
  opts.rows = 5000;
  data::EncodedDataset ds = data::MakeAdult(opts);
  SliceLineConfig pruned;
  pruned.max_level = 3;
  SliceLineConfig unpruned = pruned;
  unpruned.prune_score = false;
  auto a = RunSliceLine(ds, pruned);
  auto b = RunSliceLine(ds, unpruned);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(a->total_evaluated, b->total_evaluated);
  // Same answers either way.
  ASSERT_EQ(a->top_k.size(), b->top_k.size());
  for (size_t i = 0; i < a->top_k.size(); ++i) {
    EXPECT_EQ(a->top_k[i].stats.score, b->top_k[i].stats.score);
  }
}

}  // namespace
}  // namespace sliceline::core
