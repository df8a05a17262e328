// Reproduces Figure 6(b) (hybrid slice evaluation): end-to-end runtime as a
// function of the evaluation block size b. Two sweeps:
//  (1) the generic-kernel (LA) engine, which -- like the paper's ML-system
//      execution -- materializes the (X S_b^T) intermediate of ~nrow(X) x b
//      per block, so the curve is U-shaped: small b pays one X scan per
//      block, large b pays allocation/sorting of oversized intermediates;
//  (2) the native engine's kScanBlock schedule, which evaluates each block
//      of b slices with the bitmap kernels, data-parallel over fixed row
//      tiles, without materializing intermediates.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"

int main() {
  using namespace sliceline;
  bench::Banner("Figure 6(b): Hybrid Slice Evaluation Block Size",
                "SliceLine Figure 6(b)");
  const std::vector<int> blocks = {1, 2, 4, 8, 16, 32, 64, 256, 1024};

  std::printf("(1) LA engine, materialized (X S_b^T) intermediates\n");
  for (const char* name : {"adult", "uscensus"}) {
    // The LA pair join is quadratic in valid slices; keep inputs small and
    // cap uscensus (correlated, wide level 2) at ceil(L) = 2.
    const bool wide = std::string(name) == "uscensus";
    data::EncodedDataset ds = bench::Load(name, wide ? 4000 : 8000);
    std::printf("  %s (n=%s, ceil(L)=%d):\n", name,
                FormatWithCommas(ds.n()).c_str(), wide ? 2 : 3);
    std::printf("    %-8s %12s %12s\n", "b", "time[s]", "evaluated");
    for (int b : blocks) {
      core::SliceLineConfig config;
      config.alpha = 0.95;
      config.k = 4;
      config.max_level = wide ? 2 : 3;
      config.eval_block_size = b;
      auto result = core::RunSliceLineLA(ds, config);
      if (!result.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", name,
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("    %-8d %12s %12s\n", b,
                  FormatDouble(result->total_seconds, 3).c_str(),
                  FormatWithCommas(result->total_evaluated).c_str());
    }
  }

  std::printf("\n(2) native engine, streaming scan-shared evaluation\n");
  for (const char* name : {"adult", "uscensus"}) {
    data::EncodedDataset ds =
        bench::Load(name, std::string(name) == "adult" ? 8000 : 4000);
    std::printf("  %s (n=%s):\n", name, FormatWithCommas(ds.n()).c_str());
    std::printf("    %-8s %12s %12s\n", "b", "time[s]", "evaluated");
    for (int b : blocks) {
      core::SliceLineConfig config;
      config.alpha = 0.95;
      config.k = 4;
      config.max_level = 3;
      config.eval_strategy = core::SliceLineConfig::EvalStrategy::kScanBlock;
      config.eval_block_size = b;
      auto result = core::RunSliceLine(ds, config);
      if (!result.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", name,
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("    %-8d %12s %12s\n", b,
                  FormatDouble(result->total_seconds, 3).c_str(),
                  FormatWithCommas(result->total_evaluated).c_str());
    }
    // Reference point: the bitmap per-slice evaluator.
    core::SliceLineConfig config;
    config.alpha = 0.95;
    config.k = 4;
    config.max_level = 3;
    config.eval_strategy = core::SliceLineConfig::EvalStrategy::kBitset;
    auto result = core::RunSliceLine(ds, config);
    if (result.ok()) {
      std::printf("    %-8s %12s   (bitmap-intersection reference)\n",
                  "bitset", FormatDouble(result->total_seconds, 3).c_str());
    }
  }
  std::printf(
      "\nExpected shape (paper): on the materializing engine runtime\n"
      "improves from b=1 via scan sharing, then degrades once the\n"
      "nrow(X) x b intermediates dominate (paper default b=16); the\n"
      "streaming engine keeps improving and bounds the achievable gain.\n");
  return 0;
}
