#include "stream/stream_finder.h"

#include <bit>
#include <utility>

#include "core/sliceline.h"
#include "linalg/kernels_simd.h"
#include "obs/metrics.h"

namespace sliceline::stream {

StatusOr<std::unique_ptr<StreamingSliceFinder>> StreamingSliceFinder::Create(
    const data::IntMatrix& base_x0, const std::vector<double>& base_errors,
    StreamOptions options) {
  SLICELINE_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentStore> store,
      SegmentStore::Create(base_x0, base_errors, options.domains));
  std::unique_ptr<StreamingSliceFinder> finder(
      new StreamingSliceFinder(std::move(options)));
  finder->store_ = std::move(store);
  return finder;
}

Status StreamingSliceFinder::Append(const data::IntMatrix& delta_x0,
                                    const std::vector<double>& delta_errors,
                                    double ingest_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  SLICELINE_RETURN_NOT_OK(
      store_->Append(delta_x0, delta_errors, ingest_seconds));
  store_->MaybeCompact(options_.compact_ratio);
  return Status::OK();
}

StatusOr<core::SliceLineResult> StreamingSliceFinder::Find(
    const core::SliceLineConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t n = store_->n();
  const int64_t delta_rows = n - rows_at_last_find_;
  const bool fallback =
      options_.full_rerun_fraction > 0.0 && rows_at_last_find_ > 0 &&
      static_cast<double>(delta_rows) >
          options_.full_rerun_fraction * static_cast<double>(n);
  StatusOr<core::SliceLineResult> result = Status::OK();
  if (fallback) {
    // Too much new data for incremental re-scoring to pay off: run the
    // plain evaluator over the store's columns (with the frozen offsets, so
    // results stay comparable across the fallback).
    const core::SliceEvaluator evaluator(store_->columns());
    result = core::RunSliceLineWithBackend(evaluator, config);
    if (result.ok()) result.value().outcome.stream_full_fallback = true;
    last_find_stats_ = StreamFindStats{};
    last_find_stats_.full_fallback = true;
  } else {
    find_stats_ = StreamFindStats{};
    result = core::RunSliceLineWithBackend(evaluator_, config);
    if (result.ok()) {
      result.value().outcome.stream_candidates_cached =
          find_stats_.candidates_cached;
      result.value().outcome.stream_candidates_delta =
          find_stats_.candidates_delta;
      result.value().outcome.stream_candidates_full =
          find_stats_.candidates_full;
    }
    last_find_stats_ = find_stats_;
  }
  if (result.ok()) rows_at_last_find_ = n;
  return result;
}

int64_t StreamingSliceFinder::n() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->n();
}

uint64_t StreamingSliceFinder::fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->fingerprint();
}

int64_t StreamingSliceFinder::compactions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->compactions();
}

StreamFindStats StreamingSliceFinder::last_find_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_find_stats_;
}

StatusOr<core::EvalResult> StreamingSliceFinder::StreamEvaluator::Evaluate(
    const core::SliceSet& set, const core::SliceLineConfig& config) const {
  // Runs inside Find(), which holds owner_->mutex_: the cache and scratch
  // buffers are safe to mutate without further locking.
  const RunContext* ctx = config.run_context;
  StreamingSliceFinder* owner = owner_;
  const SegmentStore& store = *owner->store_;
  const data::ColumnStore& columns = store.columns();
  core::EvalResult out;
  const size_t count = static_cast<size_t>(set.size());
  out.sizes.assign(count, 0.0);
  out.error_sums.assign(count, 0.0);
  out.max_errors.assign(count, 0.0);
  if (count == 0) return out;

  const linalg::SimdKernels& kernels = linalg::ActiveKernels();
  const int64_t n = store.n();
  columns.Materialize(set.Columns(0), set.total_columns(), config.parallel);
  const int64_t total_words = columns.words();
  // The intersection, plus the plane walk's two buffers when there are
  // planes.
  owner->scratch_.resize(static_cast<size_t>(
      (columns.error_planes() != nullptr ? 3 : 1) * total_words));
  StreamFindStats& stats = owner->find_stats_;

  for (int64_t i = 0; i < set.size(); ++i) {
    if ((i & 63) == 0 && ctx != nullptr && ctx->ShouldStop()) break;
    const int64_t len = set.Length(i);
    const int64_t* cols = set.Columns(i);
    std::vector<int64_t> key(cols, cols + len);

    auto it = owner->stats_cache_.find(key);
    CachedStats cached;
    bool have_entry = it != owner->stats_cache_.end();
    if (have_entry) cached = it->second;

    if (have_entry && cached.prefix == n) {
      ++stats.candidates_cached;
    } else {
      int64_t start = have_entry ? cached.prefix : 0;
      bool untouched = false;
      if (start > 0) {
        // Fast path: when the cached prefix sits on a live segment
        // boundary and no appended row carries any predicate column, the
        // statistic cannot have changed.
        const std::vector<int64_t>* at = store.BoundaryCounts(start);
        if (at != nullptr) {
          for (int64_t c = 0; c < len; ++c) {
            const size_t col = static_cast<size_t>(cols[c]);
            if (store.basic_sizes()[col] - (*at)[col] == 0) {
              untouched = true;
              break;
            }
          }
        }
      }
      if (untouched) {
        ++stats.candidates_cached;
      } else {
        // Continue the cached statistics over rows [start, n) -- or start
        // them at row 0 on a miss. Without error planes this continues the
        // cached float chain with the plain evaluator's ascending-row
        // kernel; with planes the delta is an exact plane count, and adding
        // it to the (equally exact) cached sum gives the same double. Either
        // way the result is bit-identical to a from-scratch evaluation over
        // the concatenated data.
        if (have_entry) {
          ++stats.candidates_delta;
        } else {
          cached = CachedStats{};
          start = 0;
          ++stats.candidates_full;
        }
        const int64_t w0 = start >> 6;
        const int64_t span = total_words - w0;
        owner->column_arena_.resize(static_cast<size_t>(len));
        for (int64_t c = 0; c < len; ++c) {
          owner->column_arena_[static_cast<size_t>(c)] =
              columns.Column(cols[c]) + w0;
        }
        uint64_t* dst = owner->scratch_.data();
        int64_t ones = kernels.intersect_columns(
            owner->column_arena_.data(), static_cast<int32_t>(len), dst,
            span);
        if ((start & 63) != 0) {
          // Rows [w0*64, start) are already folded into the cached
          // statistics; mask them out of the shared boundary word.
          const uint64_t keep = ~0ULL << (start & 63);
          ones -= std::popcount(dst[0] & ~keep);
          dst[0] &= keep;
        }
        if (const linalg::ErrorPlanes* planes = columns.error_planes()) {
          linalg::PlaneStats delta;
          linalg::AccumulatePlaneStats(
              kernels, dst, ones, span, store.errors().data() + (w0 << 6),
              *planes, w0, dst + total_words, &delta);
          cached.count += delta.count;
          cached.sum += static_cast<double>(delta.units) * planes->unit;
          const double delta_max =
              static_cast<double>(delta.max_units) * planes->unit;
          if (delta_max > cached.max) cached.max = delta_max;
        } else {
          linalg::MaskedStats acc{cached.count, cached.sum, cached.max};
          kernels.masked_stats(dst, span,
                               store.errors().data() + (w0 << 6), &acc);
          cached.count = acc.count;
          cached.sum = acc.sum;
          cached.max = acc.max;
        }
      }
      cached.prefix = n;
      if (have_entry) {
        it->second = cached;
      } else if (owner->stats_cache_.size() <
                 owner->options_.max_cached_slices) {
        owner->stats_cache_.emplace(std::move(key), cached);
      }
    }
    out.sizes[static_cast<size_t>(i)] = static_cast<double>(cached.count);
    out.error_sums[static_cast<size_t>(i)] = cached.sum;
    out.max_errors[static_cast<size_t>(i)] = cached.max;
  }

  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    registry->GetCounter("stream/candidates_cached")
        ->Add(stats.candidates_cached);
    registry->GetCounter("stream/candidates_delta")
        ->Add(stats.candidates_delta);
    registry->GetCounter("stream/candidates_full")
        ->Add(stats.candidates_full);
  }
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return out;
}

}  // namespace sliceline::stream
