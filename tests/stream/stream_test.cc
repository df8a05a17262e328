// Incremental & streaming slice finding: SegmentStore append
// bit-determinism and last-row tracking, StreamingSliceFinder
// incremental-vs-from-scratch equivalence (with the per-candidate decision
// counters, and under a statistics-cache cap), and SliceWatcher sliding
// windows with exactly-once tau-crossing alerts under a simulated clock.
// Suites are named Stream* so the TSan preset's filter picks them up.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/sliceline.h"
#include "data/int_matrix.h"
#include "linalg/kernels_simd.h"
#include "stream/segment.h"
#include "stream/stream_finder.h"
#include "stream/watcher.h"

namespace sliceline::stream {
namespace {

bool BitEqual(double a, double b) {
  uint64_t ab = 0;
  uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

struct StreamData {
  data::IntMatrix x0;
  std::vector<double> errors;
};

/// Deterministic codes in 1..domain over `features` columns; rows in the
/// (c0=1, c1=1) cell carry much larger errors, so slice finding has a
/// planted signal.
StreamData MakeData(int64_t rows, int64_t features, int32_t domain,
                    uint64_t seed) {
  Rng rng(seed);
  StreamData data{data::IntMatrix(rows, features), std::vector<double>(rows)};
  for (int64_t r = 0; r < rows; ++r) {
    int32_t* row = data.x0.row(r);
    for (int64_t j = 0; j < features; ++j) {
      row[j] = 1 + static_cast<int32_t>(rng.NextUint64(domain));
    }
    const double noise = std::abs(rng.NextGaussian());
    data.errors[static_cast<size_t>(r)] =
        row[0] == 1 && row[1] == 1 ? 4.0 + noise : 0.3 * noise;
  }
  return data;
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

core::SliceLineConfig TestConfig() {
  core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  config.max_level = 3;
  return config;
}

/// From-scratch reference over the row prefix, with the same frozen
/// offsets the streaming finder uses.
core::SliceLineResult ReferenceRun(const StreamData& data,
                                   const std::vector<int32_t>& domains,
                                   int64_t prefix,
                                   const core::SliceLineConfig& config) {
  const data::IntMatrix x0 = RowSlice(data.x0, 0, prefix);
  const std::vector<double> errors = ErrorSlice(data.errors, 0, prefix);
  const data::FeatureOffsets offsets = data::OffsetsFromDomains(domains);
  const core::SliceEvaluator evaluator(x0, offsets, errors);
  auto result = core::RunSliceLineWithBackend(evaluator, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Checks last_row against a backwards scan of the store's rows for the
/// last one holding each column (-1 when none does).
void ExpectLastRowsMatchScan(const SegmentStore& store) {
  const data::FeatureOffsets& offsets = store.offsets();
  for (int64_t c = 0; c < offsets.total; ++c) {
    const int feature = offsets.FeatureOfColumn(c);
    const int32_t code = offsets.CodeOfColumn(c);
    int64_t want = store.n() - 1;
    while (want >= 0 && store.x0().At(want, feature) != code) --want;
    EXPECT_EQ(store.last_row(c), want) << "column " << c;
  }
}

void ExpectBitIdentical(const core::SliceLineResult& want,
                        const core::SliceLineResult& got) {
  ASSERT_EQ(want.top_k.size(), got.top_k.size());
  for (size_t i = 0; i < want.top_k.size(); ++i) {
    EXPECT_EQ(want.top_k[i].predicates, got.top_k[i].predicates) << i;
    EXPECT_EQ(want.top_k[i].stats.size, got.top_k[i].stats.size) << i;
    EXPECT_TRUE(
        BitEqual(want.top_k[i].stats.score, got.top_k[i].stats.score))
        << i << ": " << want.top_k[i].stats.score << " vs "
        << got.top_k[i].stats.score;
    EXPECT_TRUE(BitEqual(want.top_k[i].stats.error_sum,
                         got.top_k[i].stats.error_sum))
        << i;
    EXPECT_TRUE(BitEqual(want.top_k[i].stats.max_error,
                         got.top_k[i].stats.max_error))
        << i;
  }
  EXPECT_EQ(want.total_evaluated, got.total_evaluated);
  EXPECT_EQ(want.levels.size(), got.levels.size());
}

TEST(StreamSegmentTest, AppendsMatchOneShotBuildBitIdentically) {
  const StreamData data = MakeData(240, 4, 3, 101);
  // Code 4 of the last feature never occurs: its column has no last row.
  const std::vector<int32_t> domains = {3, 3, 3, 4};

  auto one_shot = SegmentStore::Create(data.x0, data.errors, domains);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

  auto chained = SegmentStore::Create(RowSlice(data.x0, 0, 100),
                                      ErrorSlice(data.errors, 0, 100),
                                      domains);
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();
  SegmentStore& store = *chained.value();
  ExpectLastRowsMatchScan(store);
  // Build half the columns before appending, so the appends extend built
  // bitmaps; the rest are built from all rows afterwards.
  std::vector<int64_t> even_columns;
  for (int64_t c = 0; c < store.offsets().total; c += 2) {
    even_columns.push_back(c);
  }
  store.columns().Materialize(even_columns.data(),
                              static_cast<int64_t>(even_columns.size()),
                              /*parallel=*/false);
  ASSERT_TRUE(store
                  .Append(RowSlice(data.x0, 100, 180),
                          ErrorSlice(data.errors, 100, 180))
                  .ok());
  ExpectLastRowsMatchScan(store);
  ASSERT_TRUE(store
                  .Append(RowSlice(data.x0, 180, 240),
                          ErrorSlice(data.errors, 180, 240))
                  .ok());
  ExpectLastRowsMatchScan(store);
  EXPECT_EQ(store.last_row(store.offsets().total - 1), -1);

  const SegmentStore& ref = *one_shot.value();
  ASSERT_EQ(store.n(), ref.n());
  EXPECT_TRUE(BitEqual(store.total_error(), ref.total_error()));
  ASSERT_EQ(store.basic_sizes(), ref.basic_sizes());
  ASSERT_EQ(store.basic_error_sums().size(), ref.basic_error_sums().size());
  for (size_t c = 0; c < store.basic_error_sums().size(); ++c) {
    EXPECT_TRUE(
        BitEqual(store.basic_error_sums()[c], ref.basic_error_sums()[c]))
        << c;
    EXPECT_TRUE(
        BitEqual(store.basic_max_errors()[c], ref.basic_max_errors()[c]))
        << c;
  }
  // Column bitmaps share the global word layout, so the append-built words
  // equal the one-shot words exactly.
  std::vector<int64_t> all_columns;
  for (int64_t c = 0; c < store.offsets().total; ++c) all_columns.push_back(c);
  const data::ColumnStore& got = store.columns();
  const data::ColumnStore& want = ref.columns();
  got.Materialize(all_columns.data(), store.offsets().total,
                  /*parallel=*/false);
  want.Materialize(all_columns.data(), ref.offsets().total,
                   /*parallel=*/false);
  ASSERT_EQ(got.words(), want.words());
  for (int64_t c = 0; c < store.offsets().total; ++c) {
    EXPECT_EQ(std::memcmp(got.Column(c), want.Column(c),
                          static_cast<size_t>(got.words()) *
                              sizeof(uint64_t)),
              0)
        << c;
  }
}

TEST(StreamSegmentTest, RejectsMalformedAppendsLeavingStoreUnchanged) {
  const StreamData data = MakeData(80, 4, 3, 103);
  auto created =
      SegmentStore::Create(data.x0, data.errors, data.x0.ColMaxs());
  ASSERT_TRUE(created.ok());
  SegmentStore& store = *created.value();
  std::vector<int64_t> last_rows;
  for (int64_t c = 0; c < store.offsets().total; ++c) {
    last_rows.push_back(store.last_row(c));
  }

  // Column-count mismatch.
  EXPECT_FALSE(store.Append(data::IntMatrix(1, 3), {1.0}).ok());
  // Code outside the frozen domain (and the 1-based floor).
  data::IntMatrix high(1, 4);
  for (int j = 0; j < 4; ++j) high.row(0)[j] = 1;
  high.row(0)[2] = 4;
  EXPECT_FALSE(store.Append(high, {1.0}).ok());
  data::IntMatrix zero(1, 4);
  for (int j = 0; j < 4; ++j) zero.row(0)[j] = 1;
  zero.row(0)[0] = 0;
  EXPECT_FALSE(store.Append(zero, {1.0}).ok());
  // Error vector shape and value violations.
  data::IntMatrix good(1, 4);
  for (int j = 0; j < 4; ++j) good.row(0)[j] = 1;
  EXPECT_FALSE(store.Append(good, {}).ok());
  EXPECT_FALSE(store.Append(good, {-1.0}).ok());
  EXPECT_FALSE(store.Append(good, {std::nan("")}).ok());

  EXPECT_EQ(store.n(), 80);
  EXPECT_EQ(store.errors().size(), 80u);
  for (int64_t c = 0; c < store.offsets().total; ++c) {
    EXPECT_EQ(store.last_row(c), last_rows[static_cast<size_t>(c)]) << c;
  }
}

/// Every ISA this host runs, at pool sizes 1, 2 and 8.
std::vector<std::pair<linalg::SimdIsa, size_t>> IsasTimesPools() {
  std::vector<std::pair<linalg::SimdIsa, size_t>> out;
  for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      out.emplace_back(isa, threads);
    }
  }
  return out;
}

TEST(StreamFinderTest, IncrementalFindBitIdenticalToFromScratch) {
  const StreamData continuous = MakeData(400, 4, 3, 104);
  // The same rows with errors on a dyadic grid, halves before the append
  // and quarters after it: the store refines its error planes, and the
  // finder continues cached sums with plane counts instead of the exact
  // masked kernel alone.
  const StreamData grid = [&] {
    StreamData rounded = continuous;
    for (size_t r = 0; r < rounded.errors.size(); ++r) {
      const double steps = r < 150 ? 2.0 : 4.0;
      rounded.errors[r] = std::round(rounded.errors[r] * steps) / steps;
    }
    return rounded;
  }();
  const core::SliceLineConfig config = TestConfig();
  // Stronger score pruning evaluates a subset of level 2; a small support
  // without score pruning evaluates every pair and reaches levels 3 and 4,
  // and its large K compares the statistics of every level, not just the
  // tiny slices that top the ranking at this support.
  core::SliceLineConfig narrow_config = config;
  narrow_config.k = 1;
  core::SliceLineConfig deep = config;
  deep.k = 500;
  deep.min_support = 2;
  deep.max_level = 0;
  deep.prune_score = false;
  for (const auto& [isa, threads] : IsasTimesPools()) {
    linalg::ForceIsa(isa);
    ResizeGlobalThreadPoolForTesting(threads);
    for (const StreamData* errors_family : {&continuous, &grid}) {
      SCOPED_TRACE(std::string(errors_family == &grid ? "grid errors"
                                                      : "float errors") +
                   " at " + linalg::IsaName(isa) +
                   " threads=" + std::to_string(threads));
      const StreamData& data = *errors_family;
      StreamOptions options;
      options.domains = data.x0.ColMaxs();

      auto created = StreamingSliceFinder::Create(
          RowSlice(data.x0, 0, 150), ErrorSlice(data.errors, 0, 150),
          options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      StreamingSliceFinder& finder = *created.value();

      // First find computes every candidate from scratch and seeds the
      // cache.
      auto first = finder.Find(config);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      ExpectBitIdentical(ReferenceRun(data, options.domains, 150, config),
                         first.value());
      EXPECT_GT(finder.last_find_stats().candidates_full, 0);

      // Append, then find: cached exact statistics are continued over
      // just the delta, and the result stays bit-identical to a
      // from-scratch run.
      ASSERT_TRUE(finder
                      .Append(RowSlice(data.x0, 150, 260),
                              ErrorSlice(data.errors, 150, 260))
                      .ok());
      auto second = finder.Find(config);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ExpectBitIdentical(ReferenceRun(data, options.domains, 260, config),
                         second.value());
      const StreamFindStats stats = finder.last_find_stats();
      EXPECT_GT(stats.candidates_delta + stats.candidates_cached, 0);
      EXPECT_EQ(second.value().outcome.stream_candidates_delta,
                stats.candidates_delta);
      EXPECT_EQ(second.value().outcome.stream_candidates_cached,
                stats.candidates_cached);

      // A repeat find with no intervening append answers from the cache
      // alone.
      auto repeat = finder.Find(config);
      ASSERT_TRUE(repeat.ok());
      EXPECT_EQ(finder.last_find_stats().candidates_delta, 0);
      EXPECT_EQ(finder.last_find_stats().candidates_full, 0);
      ExpectBitIdentical(second.value(), repeat.value());

      // A narrower find moves part of level 2 to row 320 (a multiple of
      // 64) and leaves the rest at row 260 (inside a word); the last find
      // then evaluates level 2 from both prefixes and from row 0 (slices
      // the narrower configs pruned) in one Evaluate call.
      ASSERT_TRUE(finder
                      .Append(RowSlice(data.x0, 260, 320),
                              ErrorSlice(data.errors, 260, 320))
                      .ok());
      auto narrow = finder.Find(narrow_config);
      ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
      ExpectBitIdentical(
          ReferenceRun(data, options.domains, 320, narrow_config),
          narrow.value());
      ASSERT_TRUE(finder
                      .Append(RowSlice(data.x0, 320, 400),
                              ErrorSlice(data.errors, 320, 400))
                      .ok());
      auto mixed = finder.Find(deep);
      ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
      ExpectBitIdentical(ReferenceRun(data, options.domains, 400, deep),
                         mixed.value());
      EXPECT_GT(finder.last_find_stats().candidates_delta, 0);
      EXPECT_GT(finder.last_find_stats().candidates_full, 0);
    }
  }
  linalg::ClearForcedIsa();
  ResizeGlobalThreadPoolForTesting(0);
}

TEST(StreamFinderTest, CacheCapCountsUncachedCandidatesAsFull) {
  const StreamData data = MakeData(300, 4, 3, 105);
  // A small support keeps dozens of candidates alive past level 1.
  core::SliceLineConfig config = TestConfig();
  config.min_support = 2;
  constexpr size_t kCap = 8;
  StreamOptions capped_options;
  capped_options.domains = data.x0.ColMaxs();
  capped_options.max_cached_slices = kCap;
  StreamOptions uncapped_options = capped_options;
  uncapped_options.max_cached_slices = size_t{1} << 20;

  auto capped_or = StreamingSliceFinder::Create(
      RowSlice(data.x0, 0, 100), ErrorSlice(data.errors, 0, 100),
      capped_options);
  auto uncapped_or = StreamingSliceFinder::Create(
      RowSlice(data.x0, 0, 100), ErrorSlice(data.errors, 0, 100),
      uncapped_options);
  ASSERT_TRUE(capped_or.ok()) << capped_or.status().ToString();
  ASSERT_TRUE(uncapped_or.ok()) << uncapped_or.status().ToString();
  StreamingSliceFinder& capped = *capped_or.value();
  StreamingSliceFinder& uncapped = *uncapped_or.value();
  auto total = [](const StreamFindStats& stats) {
    return stats.candidates_cached + stats.candidates_delta +
           stats.candidates_full;
  };

  for (const int64_t prefix : {100, 180, 240, 300}) {
    SCOPED_TRACE("prefix=" + std::to_string(prefix));
    if (prefix > 100) {
      const int64_t begin = capped.store().n();
      for (StreamingSliceFinder* finder : {&capped, &uncapped}) {
        ASSERT_TRUE(finder
                        ->Append(RowSlice(data.x0, begin, prefix),
                                 ErrorSlice(data.errors, begin, prefix))
                        .ok());
      }
    }
    auto got = capped.Find(config);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(
        ReferenceRun(data, capped_options.domains, prefix, config),
        got.value());
    ASSERT_TRUE(uncapped.Find(config).ok());
    const StreamFindStats stats = capped.last_find_stats();
    // The cap holds more candidates than it caches, and at most kCap of
    // them re-score from the cache: every other one is counted full.
    ASSERT_GT(total(stats), static_cast<int64_t>(kCap));
    EXPECT_EQ(total(stats), total(uncapped.last_find_stats()));
    EXPECT_LE(stats.candidates_cached + stats.candidates_delta,
              static_cast<int64_t>(kCap));
    EXPECT_GE(stats.candidates_full,
              total(stats) - static_cast<int64_t>(kCap));

    // A repeat find sees the same candidates: exactly the kCap cached ones
    // answer from the cache, the rest are full.
    auto repeat = capped.Find(config);
    ASSERT_TRUE(repeat.ok());
    ExpectBitIdentical(got.value(), repeat.value());
    const StreamFindStats again = capped.last_find_stats();
    EXPECT_EQ(again.candidates_cached, static_cast<int64_t>(kCap));
    EXPECT_EQ(again.candidates_delta, 0);
    EXPECT_EQ(again.candidates_full,
              total(stats) - static_cast<int64_t>(kCap));
  }
}

TEST(StreamFinderTest, FrozenDomainsRejectUnseenCodes) {
  const StreamData data = MakeData(60, 4, 3, 106);
  StreamOptions options;
  options.domains = {3, 3, 3, 3};
  auto created =
      StreamingSliceFinder::Create(data.x0, data.errors, options);
  ASSERT_TRUE(created.ok());
  StreamingSliceFinder& finder = *created.value();

  data::IntMatrix unseen(1, 4);
  for (int j = 0; j < 4; ++j) unseen.row(0)[j] = 1;
  unseen.row(0)[3] = 4;
  EXPECT_FALSE(finder.Append(unseen, {1.0}).ok());
  EXPECT_EQ(finder.store().n(), 60);
}

/// Benign rows: codes over the full domain, every error exactly 1.0, so no
/// slice scores above zero.
StreamData MakeBenign(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  StreamData data{data::IntMatrix(rows, 4), std::vector<double>(rows, 1.0)};
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < 4; ++j) {
      data.x0.row(r)[j] = 1 + static_cast<int32_t>(rng.NextUint64(3));
    }
  }
  return data;
}

/// Rows concentrated in the (c0=1, c1=1) cell with large errors: the
/// regression the watcher is supposed to flag.
StreamData MakeRegression(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  StreamData data{data::IntMatrix(rows, 4), std::vector<double>(rows, 50.0)};
  for (int64_t r = 0; r < rows; ++r) {
    data.x0.row(r)[0] = 1;
    data.x0.row(r)[1] = 1;
    data.x0.row(r)[2] = 1 + static_cast<int32_t>(rng.NextUint64(3));
    data.x0.row(r)[3] = 1 + static_cast<int32_t>(rng.NextUint64(3));
  }
  return data;
}

WatchOptions BenignWatchOptions() {
  WatchOptions options;
  options.tau = 1.0;
  options.hysteresis = 0.4;
  options.config = TestConfig();
  // Small windows must still resolve small regressed subgroups; the default
  // sigma (max(32, n/100)) would hide them.
  options.config.min_support = 4;
  options.stream.domains = {3, 3, 3, 3};
  return options;
}

TEST(StreamWatcherTest, FiresExactlyOncePerUpwardCrossing) {
  const StreamData base = MakeBenign(120, 107);
  WatchOptions options = BenignWatchOptions();
  options.window_rows = 200;
  SimulatedClock clock(10.0);

  auto created = SliceWatcher::Create("prod", base.x0, base.errors,
                                      {"c0", "c1", "c2", "c3"}, options,
                                      &clock);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SliceWatcher& watcher = *created.value();
  EXPECT_TRUE(watcher.armed());

  // Benign appends never fire.
  const StreamData benign = MakeBenign(20, 108);
  auto quiet = watcher.OnAppend(benign.x0, benign.errors);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_FALSE(quiet.value().has_value());
  EXPECT_LT(watcher.last_score(), options.tau);

  // The regression batch crosses tau: exactly one alert, then disarmed.
  const StreamData bad = MakeRegression(40, 109);
  clock.Advance(5.0);
  auto fired = watcher.OnAppend(bad.x0, bad.errors);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  ASSERT_TRUE(fired.value().has_value());
  const StreamAlert& alert = *fired.value();
  EXPECT_EQ(alert.dataset, "prod");
  EXPECT_GE(alert.score, options.tau);
  EXPECT_EQ(alert.at_rows, 180);
  EXPECT_EQ(alert.at_seconds, 15.0);
  EXPECT_NE(alert.slice_display.find("c0"), std::string::npos)
      << alert.slice_display;
  EXPECT_FALSE(watcher.armed());
  EXPECT_EQ(watcher.alerts_fired(), 1);

  // Still above tau: no re-fire while disarmed.
  const StreamData more_bad = MakeRegression(20, 110);
  auto silent = watcher.OnAppend(more_bad.x0, more_bad.errors);
  ASSERT_TRUE(silent.ok());
  EXPECT_FALSE(silent.value().has_value());
  EXPECT_EQ(watcher.alerts_fired(), 1);

  // A benign flood pushes the regression rows out of the row window; the
  // score falls below tau - hysteresis and the watcher re-arms.
  const StreamData flood = MakeBenign(210, 111);
  auto rearm = watcher.OnAppend(flood.x0, flood.errors);
  ASSERT_TRUE(rearm.ok()) << rearm.status().ToString();
  EXPECT_FALSE(rearm.value().has_value());
  EXPECT_GE(watcher.window_rebuilds(), 1);
  EXPECT_LE(watcher.window_rows(), 2 * options.window_rows);
  EXPECT_LT(watcher.last_score(), options.tau - options.hysteresis);
  EXPECT_TRUE(watcher.armed());

  // The next upward crossing fires again -- exactly once per crossing.
  const StreamData again = MakeRegression(40, 112);
  auto second = watcher.OnAppend(again.x0, again.errors);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(watcher.alerts_fired(), 2);
  EXPECT_EQ(watcher.total_rows(), 120 + 20 + 40 + 20 + 210 + 40);
}

TEST(StreamWatcherTest, WallClockWindowEvictsExpiredRows) {
  const StreamData base = MakeBenign(100, 113);
  WatchOptions options = BenignWatchOptions();
  options.window_seconds = 10.0;
  SimulatedClock clock(0.0);

  auto created = SliceWatcher::Create("clocked", base.x0, base.errors,
                                      {"c0", "c1", "c2", "c3"}, options,
                                      &clock);
  ASSERT_TRUE(created.ok());
  SliceWatcher& watcher = *created.value();

  // Within the window: nothing expires.
  const StreamData fresh = MakeBenign(30, 114);
  clock.Advance(5.0);
  ASSERT_TRUE(watcher.OnAppend(fresh.x0, fresh.errors).ok());
  EXPECT_EQ(watcher.window_rows(), 130);
  EXPECT_EQ(watcher.window_rebuilds(), 0);

  // 100 seconds later every old row is expired; the append triggers the
  // batched eviction and only the new rows remain.
  const StreamData late = MakeBenign(25, 115);
  clock.Advance(100.0);
  ASSERT_TRUE(watcher.OnAppend(late.x0, late.errors).ok());
  EXPECT_EQ(watcher.window_rows(), 25);
  EXPECT_EQ(watcher.window_rebuilds(), 1);
  EXPECT_EQ(watcher.total_rows(), 155);

  // Alerts still work on the shrunken window.
  const StreamData bad = MakeRegression(5, 116);
  auto fired = watcher.OnAppend(bad.x0, bad.errors);
  ASSERT_TRUE(fired.ok());
  ASSERT_TRUE(fired.value().has_value());
  EXPECT_EQ(fired.value()->at_seconds, 105.0);
}

TEST(StreamWatcherTest, RejectsInvalidOptions) {
  const StreamData base = MakeBenign(10, 117);
  const std::vector<std::string> names = {"c0", "c1", "c2", "c3"};

  WatchOptions bad_tau = BenignWatchOptions();
  bad_tau.tau = 0.0;
  EXPECT_FALSE(
      SliceWatcher::Create("d", base.x0, base.errors, names, bad_tau).ok());

  WatchOptions bad_hysteresis = BenignWatchOptions();
  bad_hysteresis.hysteresis = 1.0;  // must stay below tau
  EXPECT_FALSE(SliceWatcher::Create("d", base.x0, base.errors, names,
                                    bad_hysteresis)
                   .ok());

  WatchOptions bad_window = BenignWatchOptions();
  bad_window.window_rows = -1;
  EXPECT_FALSE(SliceWatcher::Create("d", base.x0, base.errors, names,
                                    bad_window)
                   .ok());
}

}  // namespace
}  // namespace sliceline::stream
