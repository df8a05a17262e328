// Exhaustive correctness sweep over every combination of pruning toggles:
// pruning is an optimization, so every one of the 16 configurations must
// return exactly the oracle's top-K on random inputs. This is the strongest
// guard against a pruning rule accidentally cutting a true top-K slice.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exhaustive.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"

namespace sliceline::core {
namespace {

struct ComboParam {
  uint64_t seed;
  int mask;  // bit 0: size, 1: score, 2: parents, 3: dedup
};

class PruningComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(PruningComboTest, EveryComboMatchesOracle) {
  const ComboParam& param = GetParam();
  Rng rng(param.seed);
  const int64_t n = 150 + rng.NextInt(0, 150);
  const int m = 4 + rng.NextInt(0, 2);
  data::IntMatrix x0(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(3)) + 1;
    }
  }
  std::vector<double> errors(n);
  for (auto& e : errors) e = rng.NextBool(0.4) ? rng.NextDouble() : 0.0;

  SliceLineConfig config;
  config.k = 5;
  config.alpha = 0.9;
  config.min_support = 8;
  config.max_level = 4;  // keep the unpruned combos cheap
  config.prune_size = (param.mask & 1) != 0;
  config.prune_score = (param.mask & 2) != 0;
  config.prune_parents = (param.mask & 4) != 0;
  config.deduplicate = (param.mask & 8) != 0;

  auto oracle = RunExhaustive(x0, errors, config);
  auto native = RunSliceLine(x0, errors, config);
  auto la = RunSliceLineLA(x0, errors, config);
  ASSERT_TRUE(oracle.ok() && native.ok() && la.ok());
  ASSERT_EQ(native->top_k.size(), oracle->top_k.size()) << "mask "
                                                        << param.mask;
  ASSERT_EQ(la->top_k.size(), oracle->top_k.size()) << "mask " << param.mask;
  for (size_t i = 0; i < oracle->top_k.size(); ++i) {
    EXPECT_EQ(native->top_k[i].stats.score, oracle->top_k[i].stats.score)
        << "mask " << param.mask << " rank " << i;
    EXPECT_EQ(la->top_k[i].stats.score, oracle->top_k[i].stats.score)
        << "mask " << param.mask << " rank " << i;
  }
}

std::vector<ComboParam> AllCombos() {
  std::vector<ComboParam> out;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    for (int mask = 0; mask < 16; ++mask) out.push_back({seed, mask});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Masks, PruningComboTest, ::testing::ValuesIn(AllCombos()),
    [](const ::testing::TestParamInfo<ComboParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_mask" +
             std::to_string(info.param.mask);
    });

}  // namespace
}  // namespace sliceline::core
