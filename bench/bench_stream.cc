// Incremental vs from-scratch slice finding on an append-only dataset.
//
// Each section times a monitoring loop — K appends of a fixed delta, each
// followed by a top-K find — two ways: through StreamingSliceFinder
// (cached per-candidate statistic chains continued over just the delta)
// and from scratch (a plain engine run over the concatenated rows after
// every append, what a caller without the stream subsystem would do).
// Timing whole loops instead of single ~8ms finds keeps every section
// above tools/bench_compare's --min-seconds floor, so both paths gate in
// CI against the checked-in BENCH_stream.json; the per-append speedup is
// recorded as an informational ratio. A final group times steady-state
// SliceWatcher::OnAppend across sliding-window sizes.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/run_context.h"
#include "core/evaluator.h"
#include "core/sliceline.h"
#include "data/int_matrix.h"
#include "stream/segment.h"
#include "stream/stream_finder.h"
#include "stream/watcher.h"

namespace {

using namespace sliceline;

core::SliceLineConfig BenchConfig() {
  core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  config.max_level = 3;
  return config;
}

data::IntMatrix RowSlice(const data::IntMatrix& x0, int64_t begin,
                         int64_t end) {
  data::IntMatrix out(end - begin, x0.cols());
  for (int64_t r = begin; r < end; ++r) {
    const int32_t* src = x0.row(r);
    std::copy(src, src + x0.cols(), out.row(r - begin));
  }
  return out;
}

std::vector<double> ErrorSlice(const std::vector<double>& errors,
                               int64_t begin, int64_t end) {
  return std::vector<double>(errors.begin() + static_cast<size_t>(begin),
                             errors.begin() + static_cast<size_t>(end));
}

volatile double g_sink = 0.0;

void Sink(const core::SliceLineResult& result) {
  g_sink = g_sink + (result.top_k.empty() ? 0.0 : result.top_k[0].stats.score);
}

constexpr int kReps = 3;

struct LoopShape {
  const char* label;
  int64_t delta_rows;  ///< rows per append
  int appends;         ///< K: appends (each followed by a find) per loop
};

/// Times the from-scratch side of one monitoring loop: a plain engine run
/// over rows [0, base + (k+1)*delta) after each of the K appends. The
/// prefix datasets are materialized before the clock starts so the loop
/// times evaluator construction + the engine, not memcpy.
double TimeFromScratchLoop(const data::EncodedDataset& dataset,
                           const data::FeatureOffsets& offsets,
                           int64_t base_rows, const LoopShape& shape,
                           const core::SliceLineConfig& config) {
  struct Prefix {
    data::IntMatrix x0;
    std::vector<double> errors;
  };
  std::vector<Prefix> prefixes;
  prefixes.reserve(shape.appends);
  for (int k = 0; k < shape.appends; ++k) {
    const int64_t end = base_rows + (k + 1) * shape.delta_rows;
    prefixes.push_back(Prefix{RowSlice(dataset.x0, 0, end),
                              ErrorSlice(dataset.errors, 0, end)});
  }
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double seconds = bench::Timed([&] {
      for (const Prefix& prefix : prefixes) {
        const core::SliceEvaluator evaluator(prefix.x0, offsets,
                                             prefix.errors);
        Sink(bench::Unwrap(core::RunSliceLineWithBackend(evaluator, config),
                           "from-scratch find"));
      }
    });
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

struct IncrementalTiming {
  double best_seconds = 0.0;
  stream::StreamFindStats stats;  ///< from the loop's final find
};

/// Times the incremental side of the same loop: one finder built over the
/// base rows and primed with an untimed find, then K timed append+find
/// cycles continuing the cached statistic chains over each delta.
IncrementalTiming TimeIncrementalLoop(const data::EncodedDataset& dataset,
                                      const std::vector<int32_t>& domains,
                                      int64_t base_rows,
                                      const LoopShape& shape,
                                      const core::SliceLineConfig& config) {
  IncrementalTiming timing;
  for (int rep = 0; rep < kReps; ++rep) {
    stream::StreamOptions options;
    options.domains = domains;
    auto finder = stream::StreamingSliceFinder::Create(
        RowSlice(dataset.x0, 0, base_rows),
        ErrorSlice(dataset.errors, 0, base_rows), options);
    if (!finder.ok()) {
      std::fprintf(stderr, "streaming create failed: %s\n",
                   finder.status().ToString().c_str());
      std::exit(1);
    }
    Sink(bench::Unwrap(finder.value()->Find(config), "priming find"));
    struct Delta {
      data::IntMatrix x0;
      std::vector<double> errors;
    };
    std::vector<Delta> deltas;
    deltas.reserve(shape.appends);
    for (int k = 0; k < shape.appends; ++k) {
      const int64_t begin = base_rows + k * shape.delta_rows;
      deltas.push_back(
          Delta{RowSlice(dataset.x0, begin, begin + shape.delta_rows),
                ErrorSlice(dataset.errors, begin, begin + shape.delta_rows)});
    }
    const double seconds = bench::Timed([&] {
      for (const Delta& delta : deltas) {
        const Status appended =
            finder.value()->Append(delta.x0, delta.errors);
        if (!appended.ok()) {
          std::fprintf(stderr, "streaming append failed: %s\n",
                       appended.ToString().c_str());
          std::exit(1);
        }
        Sink(bench::Unwrap(finder.value()->Find(config),
                           "incremental find"));
      }
    });
    if (rep == 0 || seconds < timing.best_seconds) {
      timing.best_seconds = seconds;
    }
    timing.stats = finder.value()->last_find_stats();
  }
  return timing;
}

/// Steady-state OnAppend cost for one sliding-window size: after two
/// warm-up appends (which may rebuild the window), times a loop of
/// `appends` appends of `delta_rows` rows each.
double TimeWatcherLoop(const data::EncodedDataset& dataset,
                       const std::vector<int32_t>& domains,
                       int64_t window_rows, int64_t delta_rows, int appends,
                       const core::SliceLineConfig& config) {
  struct Delta {
    data::IntMatrix x0;
    std::vector<double> errors;
  };
  const int64_t base = std::min<int64_t>(dataset.n() / 2, 2 * window_rows);
  auto next_delta = [&, cursor = base]() mutable {
    if (cursor + delta_rows > dataset.n()) cursor = base;
    Delta delta{RowSlice(dataset.x0, cursor, cursor + delta_rows),
                ErrorSlice(dataset.errors, cursor, cursor + delta_rows)};
    cursor += delta_rows;
    return delta;
  };
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    SimulatedClock clock(0.0);
    stream::WatchOptions options;
    options.tau = 1e9;  // alerting is not the subject here
    options.window_rows = window_rows;
    options.config = config;
    options.stream.domains = domains;
    auto watcher = stream::SliceWatcher::Create(
        "bench", RowSlice(dataset.x0, 0, base),
        ErrorSlice(dataset.errors, 0, base), dataset.feature_names, options,
        &clock);
    if (!watcher.ok()) {
      std::fprintf(stderr, "watcher create failed: %s\n",
                   watcher.status().ToString().c_str());
      std::exit(1);
    }
    auto append = [&](const Delta& delta) {
      clock.Advance(1.0);
      auto fired = watcher.value()->OnAppend(delta.x0, delta.errors);
      if (!fired.ok()) {
        std::fprintf(stderr, "watcher append failed: %s\n",
                     fired.status().ToString().c_str());
        std::exit(1);
      }
    };
    for (int warm = 0; warm < 2; ++warm) append(next_delta());
    std::vector<Delta> deltas;
    deltas.reserve(appends);
    for (int k = 0; k < appends; ++k) deltas.push_back(next_delta());
    const double seconds = bench::Timed([&] {
      for (const Delta& delta : deltas) append(delta);
    });
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

}  // namespace

int main() {
  bench::Banner("bench_stream: incremental slice finding on dataset deltas",
                "Sec. 4 experiment setup, extended to streaming appends");
  bench::Reporter reporter("bench_stream",
                           "incremental vs from-scratch on appends");

  // 100k rows: large enough that the O(n) statistic evaluation dominates
  // the per-find enumeration overhead, which is what the incremental path
  // saves. At 20k the fixed enumeration cost caps the speedup near 3x.
  const data::EncodedDataset dataset = bench::Load("adult", 100000);
  const std::vector<int32_t> domains = dataset.x0.ColMaxs();
  const data::FeatureOffsets offsets = data::OffsetsFromDomains(domains);
  const core::SliceLineConfig config = BenchConfig();
  const int64_t n = dataset.n();
  std::printf("dataset=adult n=%lld m=%lld (k=%d alpha=%.2f max_level=%d)\n\n",
              static_cast<long long>(n), static_cast<long long>(dataset.m()),
              config.k, config.alpha, config.max_level);

  // Delta fractions are of the final row count; each loop ends at n rows.
  const LoopShape kShapes[] = {{"0.1pct", std::max<int64_t>(1, n / 1000), 10},
                               {"1pct", std::max<int64_t>(1, n / 100), 10},
                               {"10pct", std::max<int64_t>(1, n / 10), 5}};
  std::printf("  %-8s %8s x%-3s %14s %14s %9s\n", "delta", "rows", "K",
              "incr loop", "scratch loop", "speedup");
  for (const LoopShape& shape : kShapes) {
    const int64_t base_rows = n - shape.appends * shape.delta_rows;
    const IncrementalTiming incremental =
        TimeIncrementalLoop(dataset, domains, base_rows, shape, config);
    const double scratch =
        TimeFromScratchLoop(dataset, offsets, base_rows, shape, config);
    const double speedup = incremental.best_seconds > 0.0
                               ? scratch / incremental.best_seconds
                               : 0.0;
    std::printf("  %-8s %8lld x%-3d %13.6fs %13.6fs %8.1fx\n", shape.label,
                static_cast<long long>(shape.delta_rows), shape.appends,
                incremental.best_seconds, scratch, speedup);
    reporter.AddRow(
        std::string("incremental_") + shape.label,
        {{"best_seconds", incremental.best_seconds},
         {"delta_rows", static_cast<double>(shape.delta_rows)},
         {"appends", static_cast<double>(shape.appends)},
         {"speedup", speedup},
         {"candidates_cached",
          static_cast<double>(incremental.stats.candidates_cached)},
         {"candidates_delta",
          static_cast<double>(incremental.stats.candidates_delta)},
         {"candidates_full",
          static_cast<double>(incremental.stats.candidates_full)}});
    reporter.AddRow(std::string("from_scratch_") + shape.label,
                    {{"best_seconds", scratch},
                     {"delta_rows", static_cast<double>(shape.delta_rows)},
                     {"appends", static_cast<double>(shape.appends)}});
  }

  constexpr int kWatchAppends = 10;
  std::printf("\n  %-8s %8s x%-3s %14s\n", "window", "delta", "K",
              "append loop");
  for (const int64_t window_rows : {int64_t{1000}, int64_t{4000},
                                    int64_t{16000}}) {
    const int64_t delta_rows = std::max<int64_t>(1, window_rows / 20);
    const double seconds = TimeWatcherLoop(dataset, domains, window_rows,
                                           delta_rows, kWatchAppends, config);
    std::printf("  %-8lld %8lld x%-3d %13.6fs\n",
                static_cast<long long>(window_rows),
                static_cast<long long>(delta_rows), kWatchAppends, seconds);
    reporter.AddRow("watch_window_" + std::to_string(window_rows),
                    {{"best_seconds", seconds},
                     {"delta_rows", static_cast<double>(delta_rows)},
                     {"appends", static_cast<double>(kWatchAppends)}});
  }

  std::printf("\n(sink=%g)\n", g_sink);
  return reporter.Finish();
}
