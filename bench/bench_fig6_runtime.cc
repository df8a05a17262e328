// Reproduces Figure 6(a) (Local End-to-End Runtime): total slice-finding
// runtime per dataset with defaults sigma = n/100, alpha = 0.95,
// ceil(L) = 3, including one-hot encoding/index construction, as the paper
// measures end-to-end runtime including data preparation. Each dataset is
// run twice on the bit-packed evaluation strategy — kernels forced to the
// scalar reference, then dispatched at the best vector ISA — so the JSON
// doubles as the end-to-end scalar-vs-SIMD perf baseline.
// A third timed run per dataset repeats the best-ISA configuration with
// fleet tracing enabled (recorder on, a nonzero ambient trace context — the
// exact setup a traced server job runs under) and reports the relative
// overhead; the acceptance bar for always-on tracing is < 2%.
// Two more rows, covtype/L4 and uscensus/L4, rerun the correlated datasets
// at ceil(L) = 4, where candidate generation at the deep levels dominates,
// so the perf gate sees it.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sliceline.h"
#include "linalg/kernels_simd.h"
#include "obs/trace.h"

int main() {
  using namespace sliceline;
  bench::Banner("Figure 6(a): Local End-to-End Runtime",
                "SliceLine Figure 6(a)");
  bench::Reporter reporter("bench_fig6_runtime", "SliceLine Figure 6(a)");
  // SelectedIsa() honors SLICELINE_FORCE_ISA, so a forced-scalar gate run
  // really times scalar in both columns instead of silently dispatching at
  // the detected best while annotating "scalar".
  const linalg::SimdIsa best_isa = linalg::SelectedIsa();
  reporter.Annotate("simd_best_isa", linalg::IsaName(best_isa));
  std::printf("%-12s %12s %8s %12s %12s %12s %12s %9s %9s\n", "dataset",
              "rows", "m", "evaluated", "top1-score", "scalar[s]",
              (std::string(linalg::IsaName(best_isa)) + "[s]").c_str(),
              "speedup", "trace-ovh");
  struct Run {
    const char* dataset;
    int max_level;
  };
  const std::vector<Run> runs = {{"salaries", 3}, {"adult", 3},
                                 {"covtype", 3},  {"kdd98", 3},
                                 {"uscensus", 3}, {"criteo", 3},
                                 {"covtype", 4},  {"uscensus", 4}};
  for (const Run& run : runs) {
    const std::string label =
        run.max_level == 3 ? std::string(run.dataset)
                           : std::string(run.dataset) + "/L" +
                                 std::to_string(run.max_level);
    const char* name = label.c_str();
    data::EncodedDataset ds = bench::Load(run.dataset);
    core::SliceLineConfig config;
    config.alpha = 0.95;
    config.k = 4;
    config.max_level = run.max_level;
    config.eval_strategy = core::SliceLineConfig::EvalStrategy::kBitset;
    core::SliceLineResult result;
    // Timed() includes one-hot/index prep inside RunSliceLine. Every
    // recorded number is a best-of-N for datasets that finish quickly
    // (single-shot end-to-end runs swing tens of percent on a busy host,
    // which would trip any perf-regression threshold); datasets slower
    // than 5s keep a single sample.
    linalg::ForceIsa(linalg::SimdIsa::kScalar);
    double scalar_seconds = bench::Timed([&] {
      result = bench::Unwrap(core::RunSliceLine(ds, config),
                             std::string(name) + "/scalar");
    });
    const int extra_scalar = scalar_seconds < 1.0 ? 4 : 2;
    if (scalar_seconds < 5.0) {
      for (int repeat = 0; repeat < extra_scalar; ++repeat) {
        const double seconds = bench::Timed([&] {
          result = bench::Unwrap(core::RunSliceLine(ds, config),
                                 std::string(name) + "/scalar");
        });
        if (seconds < scalar_seconds) scalar_seconds = seconds;
      }
    }
    linalg::ForceIsa(best_isa);
    const double simd_seconds = bench::Timed([&] {
      result = bench::Unwrap(core::RunSliceLine(ds, config),
                             std::string(name) + "/simd");
    });
    // Same run with fleet tracing on: recorder enabled, ambient trace
    // context installed, exactly what a server job with a trace id sees.
    // Single runs are too noisy to resolve a <2% effect, so datasets that
    // finish quickly get interleaved repeat pairs and the minimum of each
    // arm (the standard best-of-N noise filter); slow datasets keep one
    // pair and their overhead column is read as indicative only.
    auto timed_traced = [&] {
      obs::TraceRecorder::Default()->SetEnabled(true);
      const double seconds = bench::Timed([&] {
        obs::ScopedTraceContext trace_context(
            obs::TraceContext{0xB16B00B5u, 0});
        result = bench::Unwrap(core::RunSliceLine(ds, config),
                               std::string(name) + "/traced");
      });
      obs::TraceRecorder::Default()->SetEnabled(false);
      obs::TraceRecorder::Default()->Clear();
      return seconds;
    };
    double best_plain = simd_seconds;
    double best_traced = timed_traced();
    const int extra_pairs = simd_seconds < 1.0 ? 4 : 2;
    if (simd_seconds < 5.0) {
      for (int repeat = 0; repeat < extra_pairs; ++repeat) {
        const double plain = bench::Timed([&] {
          result = bench::Unwrap(core::RunSliceLine(ds, config),
                                 std::string(name) + "/simd");
        });
        if (plain < best_plain) best_plain = plain;
        const double traced = timed_traced();
        if (traced < best_traced) best_traced = traced;
      }
    }
    const double traced_seconds = best_traced;
    linalg::ClearForcedIsa();
    const double top1 =
        result.top_k.empty() ? 0.0 : result.top_k[0].stats.score;
    const double speedup =
        best_plain > 0.0 ? scalar_seconds / best_plain : 0.0;
    const double trace_overhead =
        best_plain > 0.0 ? best_traced / best_plain - 1.0 : 0.0;
    std::printf("%-12s %12s %8lld %12s %12s %12s %12s %8.2fx %8.2f%%\n", name,
                FormatWithCommas(ds.n()).c_str(),
                static_cast<long long>(ds.m()),
                FormatWithCommas(result.total_evaluated).c_str(),
                FormatDouble(top1, 4).c_str(),
                FormatDouble(scalar_seconds, 3).c_str(),
                FormatDouble(best_plain, 3).c_str(), speedup,
                trace_overhead * 100.0);
    reporter.AddRow(name,
                    {{"rows", static_cast<double>(ds.n())},
                     {"features", static_cast<double>(ds.m())},
                     {"evaluated", static_cast<double>(result.total_evaluated)},
                     {"top1_score", top1},
                     {"seconds", best_plain},
                     {"seconds_scalar", scalar_seconds},
                     {"simd_speedup", speedup},
                     {"seconds_traced", traced_seconds},
                     {"trace_overhead", trace_overhead}});
  }
  std::printf(
      "\nExpected shape (paper): all datasets complete in interactive time\n"
      "despite many rows (uscensus), many features (kdd98), and strong\n"
      "correlations (covtype/uscensus/criteo). The scalar and SIMD columns\n"
      "time the same bit-packed run; end-to-end speedup is bounded by the\n"
      "non-kernel share (encoding, candidate generation, pruning).\n"
      "trace-ovh is the relative cost of running with fleet tracing on\n"
      "(recorder enabled + ambient trace context); it must stay under 2%%.\n");
  return reporter.Finish();
}
