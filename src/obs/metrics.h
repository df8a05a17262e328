#ifndef SLICELINE_OBS_METRICS_H_
#define SLICELINE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sliceline::obs {

// ---------------------------------------------------------------------------
// Global enable switch.
// ---------------------------------------------------------------------------
//
// Observability is off by default so the hot path pays one relaxed atomic
// load plus a predictable branch per instrumentation site. Binaries that
// export metrics (--metrics-json, benchmarks with SLICELINE_BENCH_JSON)
// flip the switch before running. Compiling with -DSLICELINE_OBS_DISABLED
// additionally collapses the span/kernel macros to nothing.

/// Enables or disables metric recording process-wide.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

/// Number of per-thread shards a counter spreads its increments over.
inline constexpr int kMetricShards = 16;

/// Stable small shard id for the calling thread (round-robin assigned).
int ThreadShardId();

namespace internal {

/// Cache-line padded atomic cell; one per shard so concurrent increments
/// from different threads do not bounce a shared line.
struct alignas(64) ShardCell {
  std::atomic<int64_t> value{0};
};

}  // namespace internal

// ---------------------------------------------------------------------------
// Metric types.
// ---------------------------------------------------------------------------

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on the
/// calling thread's shard; Value() sums the shards. Totals are exact and
/// order-independent (integer addition commutes), so counter values are
/// deterministic whenever the instrumented quantities are.
class Counter {
 public:
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    shards_[ThreadShardId()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
  }

 private:
  internal::ShardCell shards_[kMetricShards];
};

/// Last-value gauge (doubles stored as bit patterns; Set/Value only).
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    bits_.store(Bits(value), std::memory_order_relaxed);
  }
  double Value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { bits_.store(Bits(0.0), std::memory_order_relaxed); }

 private:
  static uint64_t Bits(double v);
  static double FromBits(uint64_t bits);
  std::atomic<uint64_t> bits_{0x0ULL};
};

/// Fixed-bucket exponential histogram options: bucket i covers
/// (base * growth^(i-1), base * growth^i]; the first bucket covers
/// [0, base] and one overflow bucket catches everything above the last
/// bound. Bounds are precomputed at registration time; Observe() does a
/// branch-free-ish linear scan over <= 64 bounds and never allocates.
struct HistogramOptions {
  double base = 1e-6;    ///< upper bound of the first bucket
  double growth = 4.0;   ///< exponential growth factor between bounds
  int num_buckets = 16;  ///< finite buckets (excluding overflow)
};

class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options);

  /// Records one observation (sharded count per bucket + sharded sum).
  void Observe(double value);

  int64_t Count() const;
  /// Sum of observations. Accumulated in 1e-9 fixed point so the total is
  /// order-independent (and therefore deterministic) across threads;
  /// resolution is 1e-9 per observation, range +/- 9.2e9.
  double Sum() const;
  /// Per-bucket counts, length num_buckets + 1 (last = overflow).
  std::vector<int64_t> BucketCounts() const;
  /// Inclusive upper bounds, length num_buckets (overflow is +inf).
  const std::vector<double>& UpperBounds() const { return bounds_; }

  void Reset();

 private:
  std::vector<double> bounds_;
  /// buckets_[shard * stride + bucket]; padded per shard, not per bucket.
  std::vector<internal::ShardCell> cells_;
  size_t stride_;
  internal::ShardCell sum_nano_[kMetricShards];  ///< sum in 1e-9 fixed point
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// One metric's exported state, produced by MetricsRegistry::Snapshot().
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t counter_value = 0;
  double gauge_value = 0.0;
  int64_t histogram_count = 0;
  double histogram_sum = 0.0;
  std::vector<double> histogram_bounds;   ///< finite upper bounds
  std::vector<int64_t> histogram_buckets; ///< counts, last = overflow
};

/// Thread-safe name -> metric registry. Registration (Get*) takes a mutex
/// and may allocate; it happens at level/run granularity, never inside
/// kernel loops. Returned pointers are stable for the registry's lifetime,
/// so hot sites register once (e.g. via function-local statics) and then
/// update lock-free.
class MetricsRegistry {
 public:
  /// Process-wide default registry (never destroyed).
  static MetricsRegistry* Default();

  /// Returns the counter named `name`, creating it on first use. Requesting
  /// an existing name with a different metric type aborts (programming
  /// error).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const HistogramOptions& options = {});

  /// Consistent-enough snapshot of every metric, sorted by name. Relaxed
  /// loads: values recorded concurrently with the snapshot may or may not
  /// be included, which is fine for end-of-run export.
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every registered metric (between runs / tests). Pointers stay
  /// valid.
  void ResetValues();

 private:
  struct Entry {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> metrics_;
};

/// Composes a per-level metric name: "<engine>/level<level>/<what>", e.g.
/// LevelMetricName("native", 3, "candidates") == "native/level3/candidates".
std::string LevelMetricName(const char* engine, int level, const char* what);

/// How candidate generation split one level's work: the counters of
/// core::CandidateGenStats, whose `pruned` is pair_rejected +
/// candidate_rejected.
struct LevelGenCounts {
  int64_t pairs = 0;               ///< pairs of kept parents joined
  int64_t pair_rejected = 0;       ///< keys whose two-parent bound fails
  int64_t candidate_rejected = 0;  ///< keys the full Equation 9 test drops
};

/// Records one enumeration level's statistics as per-level counters in the
/// default registry (no-op when metrics are disabled). Every engine calls
/// this with exactly the values it stores in its LevelStats row, so the
/// registry view and the struct view are the same numbers by construction.
/// A level built by candidate generation also passes its split, recorded as
/// "<engine>/level<L>/pairs", ".../pair_rejected" and
/// ".../candidate_rejected".
void RecordLevelMetrics(const char* engine, int level, int64_t candidates,
                        int64_t valid, int64_t pruned, double seconds,
                        const LevelGenCounts* gen = nullptr);

}  // namespace sliceline::obs

#endif  // SLICELINE_OBS_METRICS_H_
