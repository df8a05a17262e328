#include "stream/stream_finder.h"

#include <map>
#include <utility>

#include "core/sliceline.h"
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
                                    const std::vector<double>& delta_errors) {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_->Append(delta_x0, delta_errors);
}

StatusOr<core::SliceLineResult> StreamingSliceFinder::Find(
    const core::SliceLineConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  find_stats_ = StreamFindStats{};
  StatusOr<core::SliceLineResult> result =
      core::RunSliceLineWithBackend(evaluator_, config);
  if (result.ok()) {
    RunOutcome& outcome = result.value().outcome;
    outcome.stream_candidates_cached = find_stats_.candidates_cached;
    outcome.stream_candidates_delta = find_stats_.candidates_delta;
    outcome.stream_candidates_full = find_stats_.candidates_full;
  }
  return result;
}

StreamFindStats StreamingSliceFinder::last_find_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_stats_;
}

namespace {

/// True when no row appended since `prefix` holds one of the slice's
/// predicate columns: then the slice's statistics cannot have changed.
bool Untouched(const SegmentStore& store, int64_t prefix,
               const int64_t* cols, int64_t len) {
  for (int64_t c = 0; c < len; ++c) {
    if (store.last_row(cols[c]) < prefix) return true;
  }
  return false;
}

}  // namespace

StatusOr<core::EvalResult> StreamingSliceFinder::StreamEvaluator::Evaluate(
    const core::SliceSet& set, const core::SliceLineConfig& config) const {
  // Runs inside Find(), which holds owner_->mutex_: the cache is safe to
  // mutate without further locking.
  const RunContext* ctx = config.run_context;
  StreamingSliceFinder* owner = owner_;
  std::map<std::vector<int64_t>, CachedStats>& cache = owner->stats_cache_;
  const SegmentStore& store = *owner->store_;
  const int64_t n = store.n();
  const size_t count = static_cast<size_t>(set.size());

  // Seed every candidate from its cache entry; those still missing rows
  // form one group per cached row prefix (0 for new candidates).
  core::EvalResult out;
  out.sizes.assign(count, 0.0);
  out.error_sums.assign(count, 0.0);
  out.max_errors.assign(count, 0.0);
  std::vector<CachedStats*> entries(count, nullptr);
  std::map<int64_t, std::vector<size_t>> groups;
  StreamFindStats decided;
  for (size_t i = 0; i < count; ++i) {
    std::vector<int64_t> columns(set.Columns(i),
                                 set.Columns(i) + set.Length(i));
    auto it = cache.find(columns);
    if (it == cache.end()) {
      // A new entry holds the (zero) statistics of rows [0, 0) until its
      // group is evaluated.
      if (cache.size() < owner->options_.max_cached_slices) {
        entries[i] = &cache.emplace(std::move(columns), CachedStats{})
                          .first->second;
      }
      ++decided.candidates_full;
      groups[0].push_back(i);
      continue;
    }
    CachedStats& entry = it->second;
    if (entry.prefix == n ||
        Untouched(store, entry.prefix, set.Columns(i), set.Length(i))) {
      entry.prefix = n;
      out.sizes[i] = static_cast<double>(entry.count);
      out.error_sums[i] = entry.sum.ToDouble();
      out.max_errors[i] = entry.max;
      ++decided.candidates_cached;
    } else {
      entries[i] = &entry;
      ++decided.candidates_delta;
      groups[entry.prefix].push_back(i);
    }
  }

  // Continue each group over rows [prefix, n) from its cached exact
  // statistics: integer sums, so every result rounds to the doubles of a
  // from-scratch evaluation over the concatenated data.
  const core::SliceEvaluator evaluator(store.columns());
  for (const auto& [prefix, members] : groups) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    core::SliceSet group;
    core::ExactEvalResult partial(members.size());
    group.Reserve(static_cast<int64_t>(members.size()),
                  set.total_columns());
    for (size_t g = 0; g < members.size(); ++g) {
      const size_t i = members[g];
      group.Add(set.Columns(i), set.Columns(i) + set.Length(i));
      if (const CachedStats* entry = entries[i]; entry != nullptr) {
        partial.sizes[g] = entry->count;
        partial.error_sums[g] = entry->sum;
        partial.max_errors[g] = entry->max;
      }
    }
    if (!evaluator.Continue(group, prefix, config, &partial).ok()) break;
    for (size_t g = 0; g < members.size(); ++g) {
      const size_t i = members[g];
      out.sizes[i] = static_cast<double>(partial.sizes[g]);
      out.error_sums[i] = partial.error_sums[g].ToDouble();
      out.max_errors[i] = partial.max_errors[g];
      if (entries[i] != nullptr) {
        *entries[i] = {n, partial.sizes[g], std::move(partial.error_sums[g]),
                       partial.max_errors[g]};
      }
    }
  }

  StreamFindStats& find_stats = owner->find_stats_;
  find_stats.candidates_cached += decided.candidates_cached;
  find_stats.candidates_delta += decided.candidates_delta;
  find_stats.candidates_full += decided.candidates_full;
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    registry->GetCounter("stream/candidates_cached")
        ->Add(decided.candidates_cached);
    registry->GetCounter("stream/candidates_delta")
        ->Add(decided.candidates_delta);
    registry->GetCounter("stream/candidates_full")
        ->Add(decided.candidates_full);
  }
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return out;
}

}  // namespace sliceline::stream
