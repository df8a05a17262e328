#include "stream/watcher.h"

#include <algorithm>
#include <utility>

namespace sliceline::stream {

StatusOr<std::unique_ptr<SliceWatcher>> SliceWatcher::Create(
    std::string dataset, const data::IntMatrix& base_x0,
    const std::vector<double>& base_errors,
    std::vector<std::string> feature_names, WatchOptions options,
    const Clock* clock) {
  if (clock == nullptr) clock = SteadyClock::Default();
  if (options.tau <= 0.0) {
    return Status::InvalidArgument("watch tau must be positive");
  }
  if (options.hysteresis < 0.0 || options.hysteresis >= options.tau) {
    return Status::InvalidArgument("hysteresis must be in [0, tau)");
  }
  if (options.window_rows < 0 || options.window_seconds < 0.0) {
    return Status::InvalidArgument("window bounds must be non-negative");
  }
  if (options.stream.domains.empty()) {
    // Freeze domains now: window rebuilds must keep the one-hot layout of
    // the slices being monitored even when the current window no longer
    // exercises every code.
    options.stream.domains = base_x0.ColMaxs();
  }
  std::unique_ptr<SliceWatcher> watcher(new SliceWatcher(
      std::move(dataset), std::move(feature_names), std::move(options),
      clock));
  SLICELINE_ASSIGN_OR_RETURN(
      watcher->finder_,
      StreamingSliceFinder::Create(base_x0, base_errors,
                                   watcher->options_.stream));
  watcher->buffer_times_.assign(static_cast<size_t>(base_x0.rows()),
                                clock->NowSeconds());
  watcher->total_rows_ = base_x0.rows();
  return watcher;
}

Status SliceWatcher::RebuildFromTail(int64_t new_start) {
  const SegmentStore& window = finder_->store();
  const int64_t rows = window.n();
  // Never evaluate an empty window: keep at least the newest row.
  new_start = std::min(new_start, rows - 1);
  if (new_start <= 0) return Status::OK();
  const int64_t kept = rows - new_start;
  data::IntMatrix tail(kept, window.x0().cols());
  for (int64_t r = 0; r < kept; ++r) {
    const int32_t* src = window.x0().row(new_start + r);
    std::copy(src, src + window.x0().cols(), tail.row(r));
  }
  const std::vector<double> tail_errors(
      window.errors().begin() + static_cast<size_t>(new_start),
      window.errors().end());
  SLICELINE_ASSIGN_OR_RETURN(
      finder_, StreamingSliceFinder::Create(tail, tail_errors,
                                            options_.stream));
  buffer_times_.erase(buffer_times_.begin(),
                      buffer_times_.begin() + static_cast<size_t>(new_start));
  ++window_rebuilds_;
  return Status::OK();
}

StatusOr<std::optional<StreamAlert>> SliceWatcher::OnAppend(
    const data::IntMatrix& delta_x0,
    const std::vector<double>& delta_errors) {
  const double now = clock_->NowSeconds();

  // Ingest into the incremental finder first: it validates the delta
  // against the frozen domains before any watcher state changes.
  SLICELINE_RETURN_NOT_OK(finder_->Append(delta_x0, delta_errors));
  buffer_times_.insert(buffer_times_.end(),
                       static_cast<size_t>(delta_x0.rows()), now);
  total_rows_ += delta_x0.rows();

  // Lazy batched eviction: trigger only when the buffer holds 2x the live
  // window, then cut back to exactly the window bound.
  const int64_t rows = window_rows();
  int64_t new_start = 0;
  bool evict = false;
  if (options_.window_rows > 0 && rows > 2 * options_.window_rows) {
    new_start = std::max(new_start, rows - options_.window_rows);
    evict = true;
  }
  if (options_.window_seconds > 0.0) {
    const double cutoff = now - options_.window_seconds;
    const auto first_live = std::lower_bound(buffer_times_.begin(),
                                             buffer_times_.end(), cutoff);
    const int64_t expired =
        static_cast<int64_t>(first_live - buffer_times_.begin());
    if (expired * 2 > rows) {
      new_start = std::max(new_start, expired);
      evict = true;
    }
  }
  if (evict) {
    SLICELINE_RETURN_NOT_OK(RebuildFromTail(new_start));
  }

  SLICELINE_ASSIGN_OR_RETURN(core::SliceLineResult result,
                             finder_->Find(options_.config));
  ++evaluations_;
  last_score_ = result.top_k.empty() ? 0.0 : result.top_k[0].stats.score;

  std::optional<StreamAlert> alert;
  if (armed_ && last_score_ >= options_.tau && !result.top_k.empty()) {
    StreamAlert fired;
    fired.dataset = dataset_;
    fired.slice_display = result.top_k[0].ToString(feature_names_);
    fired.score = last_score_;
    fired.at_rows = total_rows_;
    fired.at_seconds = now;
    alert = std::move(fired);
    armed_ = false;
    ++alerts_fired_;
  } else if (!armed_ && last_score_ < options_.tau - options_.hysteresis) {
    armed_ = true;
  }
  return alert;
}

}  // namespace sliceline::stream
