// Extension ablation (the paper's "priority-based enumeration" future-work
// direction, Section 7): level-wise SliceLine vs. the best-first engine
// that expands candidates in descending score-upper-bound order and stops
// when the best remaining bound cannot beat the K-th score. Both are exact;
// the comparison measures evaluated-slice counts and runtime.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sliceline.h"
#include "core/sliceline_bestfirst.h"

int main() {
  using namespace sliceline;
  bench::Banner("Extension: Level-Wise vs Best-First Enumeration",
                "SliceLine Section 7 future work (priority enumeration)");
  std::printf("%-12s %6s | %14s %10s | %14s %10s | %s\n", "dataset", "K",
              "levelwise-eval", "time[s]", "bestfirst-eval", "time[s]",
              "top1-agree");
  for (const char* name : {"salaries", "adult", "uscensus"}) {
    data::EncodedDataset ds = bench::Load(
        name, std::string(name) == "uscensus" ? 12000 : 0);
    for (int k : {1, 4, 16}) {
      core::SliceLineConfig config;
      config.alpha = 0.95;
      config.k = k;
      config.max_level = 3;
      auto level_wise = core::RunSliceLine(ds, config);
      auto best_first = core::RunSliceLineBestFirst(ds, config);
      if (!level_wise.ok() || !best_first.ok()) {
        std::fprintf(stderr, "%s failed\n", name);
        return 1;
      }
      const bool agree =
          level_wise->top_k.size() == best_first->top_k.size() &&
          (level_wise->top_k.empty() ||
           level_wise->top_k[0].stats.score ==
               best_first->top_k[0].stats.score);
      std::printf("%-12s %6d | %14s %10s | %14s %10s | %s\n", name, k,
                  FormatWithCommas(level_wise->total_evaluated).c_str(),
                  FormatDouble(level_wise->total_seconds, 3).c_str(),
                  FormatWithCommas(best_first->total_evaluated).c_str(),
                  FormatDouble(best_first->total_seconds, 3).c_str(),
                  agree ? "yes" : "NO");
    }
  }
  std::printf(
      "\nExpected shape: identical top-K (both engines are exact). The\n"
      "measured trade-off motivates the paper's level-wise choice: the\n"
      "best-first order must enumerate every child of an expanded node and\n"
      "only carries single-parent bounds, so on correlated data it\n"
      "evaluates MORE slices than the level-wise sweep with all-parent\n"
      "minima -- the early-exit only wins on small K with one dominant\n"
      "problem slice (cf. salaries K=1 vs K=16 growth).\n");
  return 0;
}
