#include "testing/random_dataset.h"

#include <algorithm>
#include <cmath>

#include "data/generators/planted_slices.h"

namespace sliceline::testing {
namespace {

enum Profile {
  kUniform = 0,        // iid uniform codes, mixed-magnitude errors
  kZipfSkewed,         // heavy-tailed category frequencies
  kPlantedSlice,       // 1-2 planted conjunctions with elevated error
  kConstantColumns,    // some columns hold a single code (domain 1)
  kAllZeroErrors,      // perfect model: every engine must return nothing
  kUniformErrors,      // identical error everywhere: no slice scores > 0
  kHeavyTies,          // binary errors + duplicated columns => massive ties
  kSingleRowSlices,    // unique codes so some slices match exactly one row
  kTinyInput,          // n in [1, 8]: degenerate shapes, sigma >= n cases
  kDuplicateRows,      // few distinct rows replicated many times
  kNumProfiles,
};

const char* kProfileNames[] = {
    "uniform",        "zipf-skewed",   "planted-slice", "constant-columns",
    "all-zero-errors", "uniform-errors", "heavy-ties",    "single-row-slices",
    "tiny-input",     "duplicate-rows",
};

}  // namespace

RandomDatasetGenerator::RandomDatasetGenerator(uint64_t seed,
                                               RandomDatasetOptions options)
    : rng_(seed), options_(options) {}

int RandomDatasetGenerator::num_profiles() { return kNumProfiles; }

const char* RandomDatasetGenerator::ProfileName(int profile) {
  return profile >= 0 && profile < kNumProfiles ? kProfileNames[profile]
                                                : "unknown";
}

FuzzCase RandomDatasetGenerator::Next() {
  return NextWithProfile(static_cast<int>(rng_.NextUint64(kNumProfiles)));
}

FuzzCase RandomDatasetGenerator::NextWithProfile(int profile) {
  // Each case runs on its own derived seed so it can be regenerated without
  // replaying the whole stream.
  const uint64_t case_seed = rng_.Next();
  return RegenerateCase(case_seed, profile, options_);
}

FuzzCase RandomDatasetGenerator::Generate(int profile, uint64_t recorded_seed) {
  FuzzCase fuzz_case;
  fuzz_case.seed = recorded_seed;
  fuzz_case.profile = ProfileName(profile);
  FillFeatures(&fuzz_case, profile);
  FillErrors(&fuzz_case, profile);
  SampleConfig(&fuzz_case);
  return fuzz_case;
}

FuzzCase RegenerateCase(uint64_t seed, int profile,
                        const RandomDatasetOptions& options) {
  RandomDatasetGenerator gen(seed, options);
  return gen.Generate(profile, seed);
}

void RandomDatasetGenerator::FillFeatures(FuzzCase* fuzz_case, int profile) {
  const RandomDatasetOptions& o = options_;
  int64_t n = rng_.NextInt(o.min_rows, o.max_rows);
  int m = static_cast<int>(rng_.NextInt(o.min_cols, o.max_cols));
  if (profile == kTinyInput) n = rng_.NextInt(1, 8);

  data::IntMatrix x0(n, m);
  std::vector<int32_t> domains(m);
  for (int j = 0; j < m; ++j) {
    domains[j] = static_cast<int32_t>(rng_.NextInt(1, o.max_domain));
  }

  switch (profile) {
    case kZipfSkewed: {
      const double exponent = rng_.NextDouble(0.8, 2.5);
      for (int j = 0; j < m; ++j) {
        data::FillCategorical(x0, j, domains[j], exponent, rng_);
      }
      break;
    }
    case kConstantColumns: {
      for (int j = 0; j < m; ++j) {
        if (rng_.NextBool(0.5)) {
          const int32_t code = static_cast<int32_t>(rng_.NextInt(1, domains[j]));
          for (int64_t i = 0; i < n; ++i) x0.At(i, j) = code;
        } else {
          data::FillCategorical(x0, j, domains[j], 0.0, rng_);
        }
      }
      break;
    }
    case kHeavyTies: {
      // Duplicate one source column into all others so many conjunctions
      // cover identical row sets (maximal score ties).
      data::FillCategorical(x0, 0, std::max<int32_t>(2, domains[0]), 0.0, rng_);
      for (int64_t i = 0; i < n; ++i) {
        for (int j = 1; j < m; ++j) x0.At(i, j) = x0.At(i, 0);
      }
      break;
    }
    case kSingleRowSlices: {
      for (int j = 0; j < m; ++j) {
        data::FillCategorical(x0, j, domains[j], 0.0, rng_);
      }
      // Give a handful of rows a private code in column 0 so the slice
      // {f0 = code} has support exactly 1.
      const int64_t specials = std::min<int64_t>(n, rng_.NextInt(1, 3));
      for (int64_t s = 0; s < specials; ++s) {
        const int64_t row = rng_.NextInt(0, n - 1);
        x0.At(row, 0) = domains[0] + 1 + static_cast<int32_t>(s);
      }
      break;
    }
    case kDuplicateRows: {
      const int64_t distinct = std::max<int64_t>(1, rng_.NextInt(1, 6));
      data::IntMatrix proto(distinct, m);
      for (int j = 0; j < m; ++j) {
        data::FillCategorical(proto, j, domains[j], 0.0, rng_);
      }
      for (int64_t i = 0; i < n; ++i) {
        const int64_t src = rng_.NextInt(0, distinct - 1);
        for (int j = 0; j < m; ++j) x0.At(i, j) = proto.At(src, j);
      }
      break;
    }
    default: {
      for (int j = 0; j < m; ++j) {
        data::FillCategorical(x0, j, domains[j], 0.0, rng_);
      }
      break;
    }
  }
  fuzz_case->x0 = std::move(x0);
}

void RandomDatasetGenerator::FillErrors(FuzzCase* fuzz_case, int profile) {
  const int64_t n = fuzz_case->x0.rows();
  const int m = static_cast<int>(fuzz_case->x0.cols());
  std::vector<double> errors(n, 0.0);

  switch (profile) {
    case kAllZeroErrors:
      break;
    case kUniformErrors: {
      const double level = rng_.NextDouble(0.05, 1.0);
      std::fill(errors.begin(), errors.end(), level);
      break;
    }
    case kHeavyTies: {
      // Binary errors keyed off the shared column value: identical row sets
      // get identical error sums, maximizing tie pressure on top-K.
      const int32_t bad = static_cast<int32_t>(
          rng_.NextInt(1, std::max<int32_t>(2, fuzz_case->x0.ColMaxs()[0])));
      for (int64_t i = 0; i < n; ++i) {
        errors[i] = fuzz_case->x0.At(i, 0) == bad ? 1.0 : 0.0;
      }
      break;
    }
    case kPlantedSlice: {
      const int planted = static_cast<int>(rng_.NextInt(1, 2));
      std::vector<std::vector<std::pair<int, int32_t>>> slices;
      const std::vector<int32_t> domains = fuzz_case->x0.ColMaxs();
      for (int s = 0; s < planted; ++s) {
        const int arity = static_cast<int>(rng_.NextInt(1, std::min(2, m)));
        std::vector<std::pair<int, int32_t>> predicates;
        for (int a = 0; a < arity; ++a) {
          const int feature = static_cast<int>(rng_.NextInt(0, m - 1));
          predicates.emplace_back(
              feature, static_cast<int32_t>(rng_.NextInt(1, domains[feature])));
        }
        slices.push_back(std::move(predicates));
      }
      const double base = rng_.NextDouble(0.02, 0.15);
      const double lifted = rng_.NextDouble(0.4, 0.9);
      for (int64_t i = 0; i < n; ++i) {
        bool in_planted = false;
        for (const auto& predicates : slices) {
          bool all = true;
          for (const auto& [f, c] : predicates) {
            all &= fuzz_case->x0.At(i, f) == c;
          }
          in_planted |= all;
        }
        errors[i] = rng_.NextBool(in_planted ? lifted : base) ? 1.0 : 0.0;
      }
      break;
    }
    default: {
      // Mixed-magnitude errors with a random zero fraction, from one of
      // three families picked by the case seed (so the draws, and the
      // config sampled after them, stay put): 0/1 inaccuracy and a dyadic
      // grid, which the column store counts over its error planes, and
      // arbitrary doubles, which only the exact masked kernel sums.
      const uint64_t family = fuzz_case->seed % 3;
      const int grid_bits = 1 + static_cast<int>(fuzz_case->seed / 3 % 6);
      const double grid = std::ldexp(1.0, grid_bits);
      const double zero_fraction = rng_.NextDouble(0.0, 0.8);
      for (int64_t i = 0; i < n; ++i) {
        if (rng_.NextBool(zero_fraction)) continue;
        double e = rng_.NextDouble();
        if (rng_.NextBool(0.1)) e *= 100.0;  // occasional outlier
        if (family == 0) e = e >= 0.5 ? 1.0 : 0.0;
        if (family == 1) e = std::round(e * grid) / grid;
        errors[i] = e;
      }
      break;
    }
  }
  fuzz_case->errors = std::move(errors);
}

void RandomDatasetGenerator::SampleConfig(FuzzCase* fuzz_case) {
  core::SliceLineConfig config;
  const int64_t n = fuzz_case->x0.rows();
  config.k = static_cast<int>(rng_.NextInt(1, 8));
  static constexpr double kAlphas[] = {0.3, 0.5, 0.8, 0.95, 1.0};
  config.alpha = kAlphas[rng_.NextUint64(5)];
  // Explicit sigma: small enough that slices exist, occasionally > n to
  // exercise the infeasible path.
  config.min_support =
      rng_.NextBool(0.1) ? n + 1 : std::max<int64_t>(1, rng_.NextInt(1, std::max<int64_t>(1, n / 4)));
  config.max_level = rng_.NextBool(0.5) ? 0 : static_cast<int>(rng_.NextInt(1, 4));
  // Exactness must hold under every pruning combination.
  config.prune_size = rng_.NextBool(0.8);
  config.prune_score = rng_.NextBool(0.8);
  config.prune_parents = rng_.NextBool(0.8);
  config.deduplicate = rng_.NextBool(0.9);
  static constexpr core::SliceLineConfig::EvalStrategy kStrategies[] = {
      core::SliceLineConfig::EvalStrategy::kScanBlock,
      core::SliceLineConfig::EvalStrategy::kBitset,
  };
  config.eval_strategy = kStrategies[rng_.NextUint64(2)];
  config.eval_block_size = static_cast<int>(rng_.NextInt(1, 32));
  config.parallel = rng_.NextBool(0.5);
  fuzz_case->config = config;
}

}  // namespace sliceline::testing
