#ifndef SLICELINE_STREAM_STREAM_FINDER_H_
#define SLICELINE_STREAM_STREAM_FINDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "core/slice.h"
#include "data/int_matrix.h"
#include "stream/segment.h"

namespace sliceline::stream {

struct StreamOptions {
  /// Frozen per-feature domains; empty derives them from the base data, in
  /// which case appends must not exercise unseen codes.
  std::vector<int32_t> domains;
  /// Per-candidate statistics cached across finds; inserts stop (updates
  /// continue) once the cache holds this many slices.
  size_t max_cached_slices = 1 << 20;
};

/// Per-Find incremental decision counters, mirrored into
/// RunOutcome::stream_candidates_{cached,delta,full}.
struct StreamFindStats {
  int64_t candidates_cached = 0;  ///< cached statistic already at prefix n
  int64_t candidates_delta = 0;   ///< cached statistic continued over delta
  int64_t candidates_full = 0;    ///< computed from row 0
};

/// Incremental slice finder over an append-only dataset.
///
/// Wraps a SegmentStore and an EvaluatorBackend whose per-candidate
/// statistics (sc, se, sm) are cached together with the row prefix they
/// cover. On the next Find after an append, a candidate is re-scored by
/// *continuing* its cached statistic over just the appended rows — or
/// skipped entirely when no appended row touches its predicate columns —
/// rather than recomputed from scratch. The cache holds exact error sums
/// (linalg::ExactSum), and the continuation adds the appended rows' exact
/// sums to them (core::SliceEvaluator::Continue), so the incremental top-K
/// is bit-identical to a from-scratch run on the concatenated data.
///
/// Thread-safe: Append and Find serialize on an internal mutex.
class StreamingSliceFinder {
 public:
  static StatusOr<std::unique_ptr<StreamingSliceFinder>> Create(
      const data::IntMatrix& base_x0, const std::vector<double>& base_errors,
      StreamOptions options = {});

  /// Appends encoded rows with their model errors.
  Status Append(const data::IntMatrix& delta_x0,
                const std::vector<double>& delta_errors);

  /// Runs slice finding over the current dataset, re-scoring each candidate
  /// from its cached statistics; the per-candidate choices are recorded in
  /// the result's RunOutcome stream fields.
  StatusOr<core::SliceLineResult> Find(const core::SliceLineConfig& config);

  /// The rows and columns found over. Unsynchronized: read it only from the
  /// thread that appends.
  const SegmentStore& store() const { return *store_; }
  StreamFindStats last_find_stats() const;

 private:
  struct CachedStats {
    int64_t prefix = 0;  ///< rows [0, prefix) are folded in
    int64_t count = 0;
    linalg::ExactSum sum;
    double max = 0.0;
  };

  /// EvaluatorBackend that answers from the statistics cache where it can
  /// and hands the rest, grouped by cached row prefix, to
  /// core::SliceEvaluator::Continue over the store's columns (in parallel
  /// under config.parallel).
  class StreamEvaluator : public core::EvaluatorBackend {
   public:
    explicit StreamEvaluator(StreamingSliceFinder* owner) : owner_(owner) {}

    StatusOr<core::EvalResult> Evaluate(
        const core::SliceSet& set,
        const core::SliceLineConfig& config) const override;

    const std::vector<int64_t>& basic_sizes() const override {
      return owner_->store_->basic_sizes();
    }
    const std::vector<double>& basic_error_sums() const override {
      return owner_->store_->basic_error_sums();
    }
    const std::vector<double>& basic_max_errors() const override {
      return owner_->store_->basic_max_errors();
    }
    int64_t n() const override { return owner_->store_->n(); }
    double total_error() const override { return owner_->store_->total_error(); }
    const data::FeatureOffsets& offsets() const override {
      return owner_->store_->offsets();
    }

   private:
    StreamingSliceFinder* owner_;
  };

  explicit StreamingSliceFinder(StreamOptions options)
      : options_(options), evaluator_(this) {}

  StreamOptions options_;
  mutable std::mutex mutex_;
  std::unique_ptr<SegmentStore> store_;
  StreamEvaluator evaluator_;
  std::map<std::vector<int64_t>, CachedStats> stats_cache_;
  StreamFindStats find_stats_;
};

}  // namespace sliceline::stream

#endif  // SLICELINE_STREAM_STREAM_FINDER_H_
