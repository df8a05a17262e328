#ifndef SLICELINE_TESTING_RANDOM_DATASET_H_
#define SLICELINE_TESTING_RANDOM_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/slice.h"
#include "data/int_matrix.h"

namespace sliceline::testing {

/// One generated differential-testing input: a dataset (integer-encoded
/// features + error vector) together with the SliceLineConfig the checks run
/// it under. `profile` names the generation recipe (for failure reports) and
/// `seed` the exact Rng seed that reproduces the case from scratch.
struct FuzzCase {
  data::IntMatrix x0;
  std::vector<double> errors;
  core::SliceLineConfig config;
  std::string profile;
  uint64_t seed = 0;
};

/// Size caps for generated datasets. The oracle-differential check runs the
/// exhaustive enumerator, so defaults are deliberately small; metamorphic and
/// determinism checks pass larger caps.
struct RandomDatasetOptions {
  int64_t min_rows = 4;
  int64_t max_rows = 220;
  int min_cols = 2;
  int max_cols = 6;
  int32_t max_domain = 5;
};

/// Seeded generator of randomized slice-finding inputs. Each case draws a
/// profile covering both "typical" distributions (uniform, zipf-skewed,
/// planted problem slices, correlated duplicate columns) and the pathological
/// shapes slicing systems historically break on (constant columns, all-zero
/// errors, uniform errors, heavy score ties, single-row slices, tiny inputs).
/// Errors come from three families (0/1, a dyadic grid, arbitrary doubles),
/// so both the error-plane and the exact masked-sum evaluation paths run.
/// The enumeration config (k, alpha, sigma, max level, pruning toggles,
/// evaluation strategy) is fuzzed alongside the data: SliceLine's exactness
/// claim must hold for every combination.
class RandomDatasetGenerator {
 public:
  explicit RandomDatasetGenerator(uint64_t seed,
                                  RandomDatasetOptions options = {});

  /// Generates the next case (profile drawn at random).
  FuzzCase Next();

  /// Generates a case with a fixed profile index in [0, num_profiles()).
  FuzzCase NextWithProfile(int profile);

  static int num_profiles();
  static const char* ProfileName(int profile);

 private:
  friend FuzzCase RegenerateCase(uint64_t seed, int profile,
                                 const RandomDatasetOptions& options);

  /// Builds a full case from the generator's current Rng state, recording
  /// `recorded_seed` as the case's reproduction seed.
  FuzzCase Generate(int profile, uint64_t recorded_seed);
  void FillFeatures(FuzzCase* fuzz_case, int profile);
  void FillErrors(FuzzCase* fuzz_case, int profile);
  void SampleConfig(FuzzCase* fuzz_case);

  Rng rng_;
  RandomDatasetOptions options_;
};

/// Re-derives the case a (seed, profile) pair produces; used by replay files
/// that only record the recipe instead of the full matrix.
FuzzCase RegenerateCase(uint64_t seed, int profile,
                        const RandomDatasetOptions& options = {});

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTING_RANDOM_DATASET_H_
