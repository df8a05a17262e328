#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace sliceline::obs {

namespace {
std::atomic<bool> g_metrics_enabled{false};
std::atomic<int> g_next_shard{0};
}  // namespace

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

int ThreadShardId() {
  thread_local const int id =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return id;
}

uint64_t Gauge::Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Histogram::Histogram(const HistogramOptions& options) {
  SLICELINE_CHECK_GT(options.base, 0.0);
  SLICELINE_CHECK_GT(options.growth, 1.0);
  SLICELINE_CHECK(options.num_buckets >= 1 && options.num_buckets <= 64)
      << "histograms support 1..64 finite buckets";
  bounds_.reserve(static_cast<size_t>(options.num_buckets));
  double bound = options.base;
  for (int i = 0; i < options.num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= options.growth;
  }
  stride_ = bounds_.size() + 1;  // + overflow bucket
  cells_ = std::vector<internal::ShardCell>(stride_ * kMetricShards);
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  size_t bucket = bounds_.size();  // overflow unless a bound catches it
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  const int shard = ThreadShardId();
  cells_[static_cast<size_t>(shard) * stride_ + bucket].value.fetch_add(
      1, std::memory_order_relaxed);
  const int64_t nanos = static_cast<int64_t>(std::llround(value * 1e9));
  sum_nano_[shard].value.fetch_add(nanos, std::memory_order_relaxed);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  int64_t nanos = 0;
  for (const auto& shard : sum_nano_) {
    nanos += shard.value.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nanos) * 1e-9;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(stride_, 0);
  for (int shard = 0; shard < kMetricShards; ++shard) {
    for (size_t b = 0; b < stride_; ++b) {
      counts[b] += cells_[static_cast<size_t>(shard) * stride_ + b].value.load(
          std::memory_order_relaxed);
    }
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  for (auto& shard : sum_nano_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricSample::Kind::kCounter;
    it->second.counter = std::make_unique<Counter>();
  }
  SLICELINE_CHECK(it->second.kind == MetricSample::Kind::kCounter)
      << "metric '" << name << "' already registered with another type";
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricSample::Kind::kGauge;
    it->second.gauge = std::make_unique<Gauge>();
  }
  SLICELINE_CHECK(it->second.kind == MetricSample::Kind::kGauge)
      << "metric '" << name << "' already registered with another type";
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricSample::Kind::kHistogram;
    it->second.histogram = std::make_unique<Histogram>(options);
  }
  SLICELINE_CHECK(it->second.kind == MetricSample::Kind::kHistogram)
      << "metric '" << name << "' already registered with another type";
  return it->second.histogram.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        sample.counter_value = entry.counter->Value();
        break;
      case MetricSample::Kind::kGauge:
        sample.gauge_value = entry.gauge->Value();
        break;
      case MetricSample::Kind::kHistogram:
        sample.histogram_count = entry.histogram->Count();
        sample.histogram_sum = entry.histogram->Sum();
        sample.histogram_bounds = entry.histogram->UpperBounds();
        sample.histogram_buckets = entry.histogram->BucketCounts();
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;  // std::map iteration is already name-sorted
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        entry.counter->Reset();
        break;
      case MetricSample::Kind::kGauge:
        entry.gauge->Reset();
        break;
      case MetricSample::Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

std::string LevelMetricName(const char* engine, int level, const char* what) {
  std::string name(engine);
  name += "/level";
  name += std::to_string(level);
  name += '/';
  name += what;
  return name;
}

void RecordLevelMetrics(const char* engine, int level, int64_t candidates,
                        int64_t valid, int64_t pruned, double seconds,
                        const LevelGenCounts* gen) {
  if (!MetricsEnabled()) return;
  MetricsRegistry* registry = MetricsRegistry::Default();
  registry->GetCounter(LevelMetricName(engine, level, "candidates"))
      ->Add(candidates);
  registry->GetCounter(LevelMetricName(engine, level, "valid"))->Add(valid);
  registry->GetCounter(LevelMetricName(engine, level, "pruned"))->Add(pruned);
  if (gen != nullptr) {
    registry->GetCounter(LevelMetricName(engine, level, "pairs"))
        ->Add(gen->pairs);
    registry->GetCounter(LevelMetricName(engine, level, "pair_rejected"))
        ->Add(gen->pair_rejected);
    registry->GetCounter(LevelMetricName(engine, level, "candidate_rejected"))
        ->Add(gen->candidate_rejected);
  }
  std::string engine_prefix(engine);
  registry->GetHistogram(engine_prefix + "/level_seconds")->Observe(seconds);
  registry->GetCounter(engine_prefix + "/candidates_total")->Add(candidates);
  registry->GetCounter(engine_prefix + "/pruned_total")->Add(pruned);
  registry->GetCounter(engine_prefix + "/levels_completed")->Increment();
}

}  // namespace sliceline::obs
