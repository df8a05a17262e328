// Reproduces Table 2 (Criteo Slice Enumeration Statistics): per-level
// candidate counts, valid slice counts, and cumulative elapsed time up to
// lattice level 6 on the ultra-sparse Criteo-like dataset, evaluated with
// an in-process distributed fleet (the paper uses 1+12 Spark nodes).
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sliceline.h"
#include "dist/coordinator.h"

int main() {
  using namespace sliceline;
  bench::Banner("Table 2: Criteo Slice Enumeration Statistics",
                "SliceLine Table 2 (levels 1-6, distributed evaluation)");
  data::EncodedDataset ds = bench::Load("criteo");
  std::printf("dataset: %s n=%s m=%lld l=%s (paper: n=192,215,183 "
              "l=75,573,541)\n\n",
              ds.name.c_str(), FormatWithCommas(ds.n()).c_str(),
              static_cast<long long>(ds.m()),
              FormatWithCommas(ds.OneHotWidth()).c_str());

  core::SliceLineConfig config;
  config.alpha = 0.95;
  config.k = 4;
  config.max_level = 6;
  dist::DistOptions options;
  options.local_workers = 12;
  dist::DistCostStats cost;
  auto result = dist::RunSliceLineDistributed(ds.x0, ds.errors, config,
                                              options, &cost);
  if (!result.ok()) {
    std::fprintf(stderr, "failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("%-16s", "Lattice Level:");
  for (const core::LevelStats& level : result->levels) {
    std::printf("%14d", level.level);
  }
  std::printf("\n%-16s", "Candidates:");
  for (const core::LevelStats& level : result->levels) {
    std::printf("%14s", FormatWithCommas(level.candidates).c_str());
  }
  std::printf("\n%-16s", "Valid Slices:");
  for (const core::LevelStats& level : result->levels) {
    std::printf("%14s", FormatWithCommas(level.valid).c_str());
  }
  std::printf("\n%-16s", "Elapsed Time:");
  double cumulative = 0.0;
  for (const core::LevelStats& level : result->levels) {
    cumulative += level.seconds;
    std::printf("%13ss", FormatDouble(cumulative, 2).c_str());
  }
  std::printf("\n\nin-process cluster: %d workers, rounds=%lld, "
              "critical-path=%.3fs, comm-estimate=%.3fs\n",
              options.local_workers, static_cast<long long>(cost.rounds),
              cost.critical_path_seconds, cost.EstimatedCommSeconds());
  std::printf(
      "\nExpected shape (paper): only a tiny fraction of the one-hot\n"
      "columns pass the support constraint at level 1; candidate counts\n"
      "stay close to valid counts at deeper levels; correlations keep the\n"
      "valid set growing through level 6 (no early termination).\n");
  return 0;
}
