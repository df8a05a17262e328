// The batch workloads: repeated in-process core::RunSliceLine finds.
//
//   batch-wide  uscensus, n=4,916 (the scale-0.1 Figure 6(a) input). Wide
//               level-2 frontiers make candidate generation dominate; the
//               evaluator is a few percent of a find.
//   batch-tall  adult, n=1,000,000. Evaluation (evaluator construction plus
//               the bitmap kernels) dominates; generation is negligible.
//
// A find's cost shifts by up to ~35% with the generator seed, so each run
// finds over several datasets generated from seeds derived from the
// workload seed, one find per dataset per round, and reports medians over
// all finds of whole rounds.
//
// The traced run times each layer from outside: data::ComputeOffsets, the
// core::SliceEvaluator constructor, and every Evaluate call through a
// forwarding core::EvaluatorBackend that also captures each level's slice
// set and result. core::GeneratePairCandidates is then replayed on the
// captured frontiers (with a core::TopK fed in the engine's offer order)
// to time generation and read its counters; the replay must reproduce the
// engine's candidate set at every level.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/candidates.h"
#include "core/evaluator.h"
#include "core/scoring.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "core/topk.h"
#include "data/generators/generators.h"
#include "data/onehot.h"
#include "linalg/bitmap.h"
#include "linalg/kernels_simd.h"
#include "stats.h"

namespace perfbench {

namespace data = sliceline::data;

namespace {

struct BatchShape {
  const char* generator;
  int64_t rows;
  int datasets;  ///< generator seeds per run
};

BatchShape ShapeOf(const std::string& workload) {
  if (workload == "batch-wide") return {"uscensus", 4916, 16};
  return {"adult", 1000000, 2};
}

/// The traced run finds over at most this many of the run's datasets: its
/// layer figures need no dataset balance, and it must leave time for the
/// replay and the LA cross-check.
constexpr int kTracedDatasets = 4;

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// Threads computing the serial reference runs side by side.
constexpr int kReferenceThreads = 4;

core::SliceLineConfig FindConfig() {
  core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  config.max_level = 3;
  return config;
}

/// One level's evaluation as the engine ran it.
struct CapturedLevel {
  core::SliceSet set;
  core::EvalResult result;
};

/// Forwards every call to the real evaluator, timing and counting each
/// Evaluate call and keeping a copy of its input and output for the
/// generation replay.
class ForwardingBackend : public core::EvaluatorBackend {
 public:
  ForwardingBackend(const core::EvaluatorBackend& inner, SpanRecorder* spans,
                    int64_t op)
      : inner_(inner), spans_(spans), op_(op) {}

  sliceline::StatusOr<core::EvalResult> Evaluate(
      const core::SliceSet& set,
      const core::SliceLineConfig& config) const override {
    sliceline::StatusOr<core::EvalResult> result = [&] {
      SpanRecorder::Scope span(
          spans_, "core.evaluator.eval.L" + std::to_string(set.Length(0)),
          "core.driver.run", op_);
      const double start = NowSeconds();
      sliceline::StatusOr<core::EvalResult> r = inner_.Evaluate(set, config);
      eval_seconds += NowSeconds() - start;
      return r;
    }();
    const double start = NowSeconds();
    if (result.ok()) levels.push_back({set, result.value()});
    slices += set.size();
    column_entries += set.total_columns();
    capture_seconds += NowSeconds() - start;
    return result;
  }

  const std::vector<int64_t>& basic_sizes() const override {
    return inner_.basic_sizes();
  }
  const std::vector<double>& basic_error_sums() const override {
    return inner_.basic_error_sums();
  }
  const std::vector<double>& basic_max_errors() const override {
    return inner_.basic_max_errors();
  }
  int64_t n() const override { return inner_.n(); }
  double total_error() const override { return inner_.total_error(); }
  const data::FeatureOffsets& offsets() const override {
    return inner_.offsets();
  }

  mutable std::vector<CapturedLevel> levels;
  mutable double eval_seconds = 0.0;
  mutable double capture_seconds = 0.0;
  mutable int64_t slices = 0;
  mutable int64_t column_entries = 0;

 private:
  const core::EvaluatorBackend& inner_;
  SpanRecorder* spans_;
  int64_t op_;
};

/// Per-find layer figures of the traced run.
struct LayerSample {
  double find = 0, offsets = 0, build = 0, eval = 0, capture = 0, self = 0;
  double levels[4] = {0, 0, 0, 0};  ///< LevelStats seconds, levels 1..3
  double engine_gen = 0;            ///< level seconds minus evaluation
  double gen = 0;                   ///< replayed generation
  int64_t slices = 0, bitmap_bytes = 0, valid = 0, candidates = 0;
  int64_t pairs = 0, duplicates = 0, pruned = 0, emitted = 0, offers = 0;
};

core::Slice MakeSlice(const data::FeatureOffsets& offsets, const int64_t* cols,
                      int64_t len, const core::SliceStats& stats) {
  core::Slice slice;
  for (int64_t k = 0; k < len; ++k) {
    slice.predicates.emplace_back(offsets.FeatureOfColumn(cols[k]),
                                  offsets.CodeOfColumn(cols[k]));
  }
  slice.stats = stats;
  return slice;
}

bool SameSet(const core::SliceSet& a, const core::SliceSet& b) {
  if (a.size() != b.size()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (a.Length(i) != b.Length(i) ||
        !std::equal(a.Columns(i), a.Columns(i) + a.Length(i), b.Columns(i))) {
      return false;
    }
  }
  return true;
}

/// Replays candidate generation over the levels the engine evaluated.
/// Returns an empty string when every level's candidates equal the
/// engine's, else what differed.
std::string ReplayGeneration(const ForwardingBackend& backend,
                             const core::SliceLineConfig& config,
                             SpanRecorder* spans, int64_t op,
                             LayerSample* sample) {
  SpanRecorder::Scope replay(spans, "core.candidates.replay", "", op);
  const data::FeatureOffsets& offsets = backend.offsets();
  const int64_t n = backend.n();
  const int64_t sigma = core::ResolveMinSupport(config, n);
  const core::ScoringContext context(n, backend.total_error(), config.alpha);
  core::TopK topk(config.k, sigma);

  // Level 1 exactly as the engine builds it: the kept basic slices form
  // the frontier, the admissible ones are offered to the top-K.
  core::SliceSet prev;
  core::EvalResult prev_stats;
  for (int64_t c = 0; c < offsets.total; ++c) {
    const int64_t ss = backend.basic_sizes()[c];
    const double se = backend.basic_error_sums()[c];
    if (!((!config.prune_size || ss >= sigma) && se > 0.0)) continue;
    prev.Add(&c, &c + 1);
    prev_stats.sizes.push_back(static_cast<double>(ss));
    prev_stats.error_sums.push_back(se);
    prev_stats.max_errors.push_back(backend.basic_max_errors()[c]);
    const double score = context.Score(ss, se);
    if (score > 0.0 && ss >= sigma) {
      topk.Offer(MakeSlice(offsets, &c, 1,
                           {score, se, backend.basic_max_errors()[c], ss}));
      ++sample->offers;
    }
  }

  const int max_level = std::min(config.max_level, offsets.num_features());
  for (int level = 2; level <= max_level && prev.size() > 0; ++level) {
    const size_t index = static_cast<size_t>(level - 2);
    std::vector<core::ParentBounds> bounds;
    core::CandidateGenStats stats;
    core::SliceSet cands;
    {
      SpanRecorder::Scope gen(spans,
                              "core.candidates.gen.L" + std::to_string(level),
                              "core.candidates.replay", op);
      const double start = NowSeconds();
      cands = core::GeneratePairCandidates(prev, prev_stats, level, context,
                                           sigma, topk.Threshold(), config,
                                           offsets, &bounds, &stats);
      sample->gen += NowSeconds() - start;
    }
    sample->pairs += stats.pairs;
    sample->duplicates += stats.duplicates;
    sample->pruned += stats.pruned;
    sample->emitted += cands.size();
    // The engine calls Evaluate only for a non-empty candidate set.
    const bool engine_evaluated = index < backend.levels.size();
    if (cands.size() == 0 && !engine_evaluated) break;
    if (!engine_evaluated || !SameSet(cands, backend.levels[index].set)) {
      return "replayed level-" + std::to_string(level) + " candidates (" +
             std::to_string(cands.size()) + ") differ from the engine's (" +
             (engine_evaluated
                  ? std::to_string(backend.levels[index].set.size())
                  : std::string("none")) +
             ")";
    }
    const core::EvalResult& eval = backend.levels[index].result;
    for (int64_t i = 0; i < cands.size(); ++i) {
      const int64_t ss = static_cast<int64_t>(eval.sizes[i]);
      const double se = eval.error_sums[i];
      const double score = context.Score(ss, se);
      if (score > 0.0 && ss >= sigma) {
        topk.Offer(MakeSlice(offsets, cands.Columns(i), cands.Length(i),
                             {score, se, eval.max_errors[i], ss}));
        ++sample->offers;
      }
    }
    prev = std::move(cands);
    prev_stats = eval;
  }
  return "";
}

}  // namespace

int RunBatch(const Options& options, Report* report) {
  const BatchShape shape = ShapeOf(options.workload);
  const core::SliceLineConfig config = FindConfig();
  Info("workload", options.workload + " (closed loop, one in-process "
                   "RunSliceLine at a time)");
  Info("seed", std::to_string(options.seed));
  Info("config", "k=4 alpha=0.95 max_level=3 sigma=max(32,n/100)");

  // -- set-up: generate the run's datasets, kSetupRepeats times. --
  std::vector<data::EncodedDataset> datasets;
  Samples setup_seconds;
  Samples generate_ms;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    datasets.clear();
    const double start = NowSeconds();
    double generate_seconds = 0.0;
    for (int d = 0; d < shape.datasets; ++d) {
      data::DatasetOptions generator;
      generator.rows = shape.rows;
      generator.seed = DeriveSeed(options.seed, static_cast<uint64_t>(d));
      const double t = NowSeconds();
      sliceline::StatusOr<data::EncodedDataset> ds =
          data::MakeDatasetByName(shape.generator, generator);
      generate_seconds += NowSeconds() - t;
      if (!ds.ok()) {
        report->Fail("generate: " + ds.status().ToString());
        return report->Finish();
      }
      datasets.push_back(std::move(ds).value());
    }
    setup_seconds.push_back(NowSeconds() - start);
    generate_ms.push_back(generate_seconds * 1e3);
  }
  const int used = options.trace ? std::min(shape.datasets, kTracedDatasets)
                                 : shape.datasets;
  for (int d = 0; d < shape.datasets; ++d) {
    const data::EncodedDataset& ds = datasets[d];
    const int64_t l = ds.OneHotWidth();
    const int64_t bitmap_bytes =
        l * sliceline::linalg::BitmapWords(ds.n()) * 8;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s seed=%llu rows=%lld features=%lld one_hot=%lld "
                  "bitmaps=%.1f MB (computed)",
                  shape.generator,
                  static_cast<unsigned long long>(
                      DeriveSeed(options.seed, static_cast<uint64_t>(d))),
                  static_cast<long long>(ds.n()),
                  static_cast<long long>(ds.m()), static_cast<long long>(l),
                  static_cast<double>(bitmap_bytes) / 1e6);
    Info("input[" + std::to_string(d) + "]", line);
  }
  Info("llc", std::to_string(LlcBytes() / (1 << 20)) + " MiB");
  Info("isa", sliceline::linalg::SelectedIsaName());

  // Round order: every round finds once on each dataset, in an order
  // shuffled by the seed.
  std::vector<int> order(static_cast<size_t>(used));
  std::iota(order.begin(), order.end(), 0);
  uint64_t shuffle_state = DeriveSeed(options.seed, 1000);
  const auto shuffle = [&] {
    for (size_t i = order.size(); i > 1; --i) {
      shuffle_state = DeriveSeed(shuffle_state, i);
      std::swap(order[i - 1], order[shuffle_state % i]);
    }
  };

  // Every find's result, checked against the references after the loop.
  std::vector<std::pair<int, core::SliceLineResult>> found;
  const auto check = [&](const core::SliceLineResult& result, int d) {
    report->Attempt();
    found.emplace_back(d, result);
  };
  // Reference top-K per dataset from serial native runs, computed after
  // the measurement (untimed, and without disturbing the measured process
  // beforehand), side by side on up to four threads. Every find must
  // equal its dataset's reference bit for bit.
  std::vector<core::SliceLineResult> references;
  const auto check_references = [&] {
    std::vector<sliceline::StatusOr<core::SliceLineResult>> runs(
        static_cast<size_t>(used), sliceline::Status::Internal("not run"));
    std::atomic<int> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < std::min(used, kReferenceThreads); ++t) {
      threads.emplace_back([&] {
        core::SliceLineConfig serial = config;
        serial.parallel = false;
        for (int d = next++; d < used; d = next++) {
          runs[d] = core::RunSliceLine(datasets[d].x0, datasets[d].errors,
                                       serial);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (sliceline::StatusOr<core::SliceLineResult>& run : runs) {
      if (!run.ok() || run->outcome.termination !=
                           sliceline::RunOutcome::Termination::kCompleted) {
        report->Fail("reference run did not complete");
        return false;
      }
      references.push_back(std::move(run).value());
    }
    for (const auto& [d, result] : found) {
      const std::string diff = DiffTopK(result, references[d]);
      if (!diff.empty()) {
        report->Fail("find on input " + std::to_string(d) +
                     " differs from the reference: " + diff);
      }
    }
    return true;
  };

  // Runs whole rounds for `budget` seconds (at least one round); `find`
  // performs one find on dataset d and returns its seconds. Returns the
  // find times and the loop's wall time.
  const auto run_rounds = [&](double budget, const auto& find) {
    Samples find_ms;
    const double start = NowSeconds();
    double round_seconds = 0.0;
    do {
      const double round_start = NowSeconds();
      shuffle();
      for (int d : order) find_ms.push_back(find(d) * 1e3);
      round_seconds = NowSeconds() - round_start;
    } while (NowSeconds() - start + round_seconds <= budget);
    return std::make_pair(find_ms, NowSeconds() - start);
  };
  const auto untraced_find = [&](int d) {
    const double start = NowSeconds();
    sliceline::StatusOr<core::SliceLineResult> result =
        core::RunSliceLine(datasets[d].x0, datasets[d].errors, config);
    const double seconds = NowSeconds() - start;
    if (!result.ok()) {
      report->Attempt();
      report->Fail("find: " + result.status().ToString());
    } else {
      check(*result, d);
    }
    return seconds;
  };

  if (!options.trace) {
    const auto [find_ms, loop_seconds] =
        run_rounds(options.seconds, untraced_find);
    Info("finds", std::to_string(find_ms.size()) + " in " +
                      std::to_string(loop_seconds) + " s");
    Info("find_ms.quartiles",
         std::to_string(*Percentile(find_ms, 0.25)) + " / " +
             std::to_string(*Percentile(find_ms, 0.5)) + " / " +
             std::to_string(*Percentile(find_ms, 0.75)));
    Info("la_crosscheck", "in the traced run (RunSliceLineLA takes ~45-70 s "
                          "on these inputs)");
    report->Set("setup_s", MedianOr0(setup_seconds));
    report->Set("find_ms.p50", MedianOr0(find_ms));
    report->Set("finds_per_s",
                static_cast<double>(find_ms.size()) / loop_seconds);
    report->Set("peak_rss_mb", PeakRssMb());
    check_references();
    return report->Finish();
  }

  // -- traced run: an untraced half for the overhead baseline and CPU per
  // find, then the traced half that gives the layer figures. --
  const double cpu_start = CpuSeconds();
  const Samples plain_ms = run_rounds(options.seconds / 2, untraced_find).first;
  const double cpu_ms_per_find =
      (CpuSeconds() - cpu_start) * 1e3 / static_cast<double>(plain_ms.size());

  SpanRecorder spans;
  std::vector<LayerSample> samples;
  int64_t next_op = 1;
  const auto traced_find = [&](int d) {
    const data::EncodedDataset& ds = datasets[d];
    const int64_t op = next_op++;
    LayerSample sample;
    data::FeatureOffsets offsets;
    std::unique_ptr<core::SliceEvaluator> evaluator;
    std::unique_ptr<ForwardingBackend> backend;
    sliceline::StatusOr<core::SliceLineResult> result =
        sliceline::Status::Internal("not run");
    {
      SpanRecorder::Scope find(&spans, "find", "", op);
      {
        SpanRecorder::Scope span(&spans, "data.offsets", "find", op);
        offsets = data::ComputeOffsets(ds.x0);
        sample.offsets = span.Elapsed();
      }
      {
        SpanRecorder::Scope span(&spans, "core.evaluator.build", "find", op);
        evaluator = std::make_unique<core::SliceEvaluator>(ds.x0, offsets,
                                                           ds.errors);
        sample.build = span.Elapsed();
      }
      backend = std::make_unique<ForwardingBackend>(*evaluator, &spans, op);
      {
        SpanRecorder::Scope span(&spans, "core.driver.run", "find", op);
        result = core::RunSliceLineWithBackend(*backend, config);
      }
      sample.find = find.Elapsed();
    }
    if (!result.ok()) {
      report->Attempt();
      report->Fail("traced find: " + result.status().ToString());
      return sample.find;
    }
    check(*result, d);

    sample.eval = backend->eval_seconds;
    sample.capture = backend->capture_seconds;
    sample.slices = backend->slices;
    sample.bitmap_bytes =
        backend->column_entries * sliceline::linalg::BitmapWords(ds.n()) * 8;
    double level_seconds = 0.0;
    for (const core::LevelStats& level : result->levels) {
      level_seconds += level.seconds;
      if (level.level <= 3) sample.levels[level.level] = level.seconds;
      if (level.level >= 2) {
        sample.valid += level.valid;
        sample.candidates += level.candidates;
        sample.engine_gen += level.seconds;
      }
    }
    sample.self = level_seconds - sample.eval - sample.capture;
    sample.engine_gen -= sample.eval + sample.capture;
    // The spans must account for the find: what the levels do not cover
    // is driver set-up and result assembly, a small fraction.
    const double covered = sample.offsets + sample.build + level_seconds;
    if (std::abs(covered - sample.find) > 0.05 * sample.find) {
      report->Fail("span accounting: offsets+build+eval+self = " +
                   std::to_string(covered) + " s vs find " +
                   std::to_string(sample.find) + " s");
    }
    const std::string replay =
        ReplayGeneration(*backend, config, &spans, op, &sample);
    if (!replay.empty()) report->Fail(replay);
    samples.push_back(sample);
    return sample.find;
  };
  const Samples traced_ms = run_rounds(options.seconds / 2, traced_find).first;

  // -- LA cross-check of one reference, untimed. --
  if (check_references()) {
    report->Attempt();
    const double start = NowSeconds();
    sliceline::StatusOr<core::SliceLineResult> la =
        core::RunSliceLineLA(datasets[0].x0, datasets[0].errors, config);
    const std::string diff =
        la.ok() ? DiffTopKTolerant(*la, references[0]) : la.status().ToString();
    if (!diff.empty()) report->Fail("LA cross-check: " + diff);
    Info("la_crosscheck", std::string(diff.empty() ? "match" : "MISMATCH") +
                              " (" + std::to_string(NowSeconds() - start) +
                              " s)");
  }

  const auto median_of = [&](auto field) {
    Samples values;
    for (const LayerSample& s : samples) values.push_back(field(s));
    return MedianOr0(values);
  };
  const auto sum_of = [&](auto field) {
    double total = 0.0;
    for (const LayerSample& s : samples) total += field(s);
    return total;
  };
  report->Set("core.evaluator.build_ms",
              median_of([](const LayerSample& s) { return s.build; }) * 1e3);
  report->Set("core.evaluator.eval_ms",
              median_of([](const LayerSample& s) { return s.eval; }) * 1e3);
  report->Set("core.evaluator.slices", median_of([](const LayerSample& s) {
                return static_cast<double>(s.slices);
              }));
  report->Set("core.evaluator.valid_ratio",
              sum_of([](const LayerSample& s) { return double(s.valid); }) /
                  sum_of([](const LayerSample& s) {
                    return double(s.candidates);
                  }));
  report->Set("linalg.bitmap_bytes_computed",
              median_of([](const LayerSample& s) {
                return static_cast<double>(s.bitmap_bytes);
              }));
  // Every evaluated slice is tested against all n rows.
  report->Set("linalg.slice_rows_per_s",
              sum_of([](const LayerSample& s) { return double(s.slices); }) *
                  static_cast<double>(shape.rows) /
                  sum_of([](const LayerSample& s) { return s.eval; }));
  report->Set("core.candidates.gen_ms",
              median_of([](const LayerSample& s) { return s.gen; }) * 1e3);
  report->Set("core.candidates.pairs", median_of([](const LayerSample& s) {
                return static_cast<double>(s.pairs);
              }));
  report->Set("core.candidates.duplicates", median_of([](const LayerSample& s) {
                return static_cast<double>(s.duplicates);
              }));
  report->Set("core.candidates.pruned", median_of([](const LayerSample& s) {
                return static_cast<double>(s.pruned);
              }));
  report->Set("core.candidates.emitted", median_of([](const LayerSample& s) {
                return static_cast<double>(s.emitted);
              }));
  report->Set("core.candidates.emit_ratio",
              sum_of([](const LayerSample& s) { return double(s.emitted); }) /
                  sum_of([](const LayerSample& s) { return double(s.pairs); }));
  report->Set("core.driver.self_ms",
              median_of([](const LayerSample& s) { return s.self; }) * 1e3);
  for (int level = 1; level <= 3; ++level) {
    report->Set("core.level" + std::to_string(level) + ".ms",
                median_of([level](const LayerSample& s) {
                  return s.levels[level];
                }) * 1e3);
  }
  report->Set("core.topk.offers", median_of([](const LayerSample& s) {
                return static_cast<double>(s.offers);
              }));
  report->Set("data.generate_ms", MedianOr0(generate_ms));
  report->Set("data.offsets_ms",
              median_of([](const LayerSample& s) { return s.offsets; }) * 1e3);
  report->Set("process.cpu_ms_per_find", cpu_ms_per_find);
  report->Set("obs.trace_overhead",
              MedianOr0(traced_ms) / MedianOr0(plain_ms) - 1.0);
  report->Set("failed_frac", static_cast<double>(report->failed()) /
                                 static_cast<double>(report->attempted()));
  report->NotExercised({"serve.", "stream."});

  // Where the traced finds' time went, from timings taken inside each find
  // (generation is the level seconds minus evaluation), and how the
  // replayed generation compares with it.
  const double total_find = sum_of([](const LayerSample& s) { return s.find; });
  const double total_gen =
      sum_of([](const LayerSample& s) { return s.engine_gen; });
  const double total_eval = sum_of([](const LayerSample& s) { return s.eval; });
  const double total_build =
      sum_of([](const LayerSample& s) { return s.build; });
  char split[160];
  std::snprintf(split, sizeof(split),
                "gen %.1f%%  eval %.1f%%  build %.1f%%  build+eval %.1f%%",
                100.0 * total_gen / total_find, 100.0 * total_eval / total_find,
                100.0 * total_build / total_find,
                100.0 * (total_build + total_eval) / total_find);
  Info("find_split", split);
  Info("gen_replay_vs_engine",
       std::to_string(sum_of([](const LayerSample& s) { return s.gen; }) /
                      total_gen) +
           " (replayed generation / level seconds minus evaluation)");
  Info("traced_finds", std::to_string(samples.size()) + " (" +
                           std::to_string(spans.size()) + " spans)");
  const std::string trace_path = options.work_dir + "/trace_" +
                                 options.workload + "_" +
                                 std::to_string(options.seed) + ".json";
  if (!spans.WriteChromeTrace(trace_path)) {
    report->Fail("cannot write " + trace_path);
  }
  Info("trace_file", trace_path);
  return report->Finish();
}

}  // namespace perfbench
