#ifndef SLICELINE_STREAM_WATCHER_H_
#define SLICELINE_STREAM_WATCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/slice.h"
#include "data/int_matrix.h"
#include "stream/stream_finder.h"

namespace sliceline::stream {

/// Monitoring configuration of one watched dataset.
struct WatchOptions {
  /// Alert when the top slice's score reaches tau.
  double tau = 1.0;
  /// Re-arm only after the score falls below tau - hysteresis, so a score
  /// oscillating around tau fires once per upward crossing, not per append.
  double hysteresis = 0.0;
  /// Sliding window by row count (0 = unbounded). Enforced with slack: rows
  /// are evicted in batches once the buffer holds 2x the window, so the
  /// evaluated window covers between W and 2W of the most recent rows and
  /// appends stay incremental between evictions.
  int64_t window_rows = 0;
  /// Sliding window by wall-clock seconds (0 = unbounded), against the
  /// injected Clock. Same lazy-eviction slack as window_rows.
  double window_seconds = 0.0;
  core::SliceLineConfig config;
  StreamOptions stream;
};

/// A fired tau-crossing.
struct StreamAlert {
  std::string dataset;
  std::string slice_display;
  double score = 0.0;
  int64_t at_rows = 0;       ///< total rows ingested when the alert fired
  double at_seconds = 0.0;   ///< clock reading when the alert fired
  /// data_hash of the dataset snapshot the firing append produced; the
  /// daemon stamps it (0 in-process: the watcher holds rows, not datasets).
  uint64_t fingerprint = 0;
};

/// Sliding-window slice monitor: every append re-runs (incremental) slice
/// finding over the current window and fires an alert exactly once per
/// upward tau-crossing of the top slice's score. Not internally
/// synchronized — callers (the server's watch manager) serialize appends
/// per watched dataset.
class SliceWatcher {
 public:
  /// `clock` is borrowed and must outlive the watcher; nullptr uses the
  /// steady clock. When options.stream.domains is empty the domains are
  /// frozen from the base data at creation and window rebuilds keep using
  /// them, so codes may not exceed the base column maxima.
  static StatusOr<std::unique_ptr<SliceWatcher>> Create(
      std::string dataset, const data::IntMatrix& base_x0,
      const std::vector<double>& base_errors,
      std::vector<std::string> feature_names, WatchOptions options,
      const Clock* clock = nullptr);

  /// Ingests a delta, advances the window, re-runs slice finding, and
  /// returns the alert if this append crossed tau.
  StatusOr<std::optional<StreamAlert>> OnAppend(
      const data::IntMatrix& delta_x0,
      const std::vector<double>& delta_errors);

  const std::string& dataset() const { return dataset_; }
  const WatchOptions& options() const { return options_; }
  bool armed() const { return armed_; }
  double last_score() const { return last_score_; }
  int64_t alerts_fired() const { return alerts_fired_; }
  int64_t evaluations() const { return evaluations_; }
  int64_t window_rebuilds() const { return window_rebuilds_; }
  /// Rows currently in the evaluated window.
  int64_t window_rows() const { return finder_->store().n(); }
  /// Total rows ever ingested (base + appends).
  int64_t total_rows() const { return total_rows_; }

 private:
  SliceWatcher(std::string dataset, std::vector<std::string> feature_names,
               WatchOptions options, const Clock* clock)
      : dataset_(std::move(dataset)),
        feature_names_(std::move(feature_names)),
        options_(std::move(options)),
        clock_(clock) {}

  Status RebuildFromTail(int64_t new_start);

  std::string dataset_;
  std::vector<std::string> feature_names_;
  WatchOptions options_;
  const Clock* clock_;

  // Ingest time (ascending) of each row of the window, which the finder's
  // store holds.
  std::vector<double> buffer_times_;

  std::unique_ptr<StreamingSliceFinder> finder_;
  bool armed_ = true;
  double last_score_ = 0.0;
  int64_t alerts_fired_ = 0;
  int64_t evaluations_ = 0;
  int64_t window_rebuilds_ = 0;
  int64_t total_rows_ = 0;
};

}  // namespace sliceline::stream

#endif  // SLICELINE_STREAM_WATCHER_H_
