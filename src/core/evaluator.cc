#include "core/evaluator.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/kernels_simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::core {

void SliceSet::Add(const int64_t* begin, const int64_t* end) {
  SLICELINE_DCHECK(std::is_sorted(begin, end));
  columns_.insert(columns_.end(), begin, end);
  offsets_.push_back(static_cast<int64_t>(columns_.size()));
}

void SliceSet::AddUniform(const int64_t* begin, const int64_t* end,
                          int64_t width) {
  int64_t offset = static_cast<int64_t>(columns_.size());
  columns_.insert(columns_.end(), begin, end);
  const int64_t count = (end - begin) / width;
  offsets_.reserve(offsets_.size() + count);
  for (int64_t i = 0; i < count; ++i) offsets_.push_back(offset += width);
}

void SliceSet::Reserve(int64_t slices, int64_t total_columns) {
  offsets_.reserve(offsets_.size() + slices);
  columns_.reserve(columns_.size() + total_columns);
}

void ExactEvalResult::Add(size_t to, const ExactEvalResult& other,
                          size_t from) {
  sizes[to] += other.sizes[from];
  error_sums[to].Add(other.error_sums[from]);
  max_errors[to] = std::max(max_errors[to], other.max_errors[from]);
}

EvalResult ExactEvalResult::Round() const {
  EvalResult out;
  out.sizes.assign(sizes.begin(), sizes.end());
  out.error_sums.reserve(error_sums.size());
  for (const linalg::ExactSum& sum : error_sums) {
    out.error_sums.push_back(sum.ToDouble());
  }
  out.max_errors = max_errors;
  return out;
}

SliceEvaluator::SliceEvaluator(const data::IntMatrix& x0,
                               const data::FeatureOffsets& offsets,
                               const std::vector<double>& errors)
    : owned_store_(std::make_unique<const data::ColumnStore>(x0, offsets,
                                                              errors)),
      store_(*owned_store_) {}

SliceEvaluator::SliceEvaluator(const data::ColumnStore& store)
    : store_(store) {}

namespace {

/// Most candidates kBitset hands the loop at once: bounds the statistics
/// and column pointers a range holds, since a serial run is one range over
/// the whole set.
constexpr int64_t kRangeChunk = 1024;

/// The sibling runs of `set` as the evaluation loop forms them
/// (linalg::ContinuesRun), each slice outside a run counting as one.
int64_t CountPrefixRuns(const SliceSet& set) {
  int64_t runs = 0;
  for (int64_t s = 0; s < set.size(); ++s) {
    if (s == 0 || !linalg::ContinuesRun(set.Columns(s - 1), set.Length(s - 1),
                                        set.Columns(s), set.Length(s))) {
      ++runs;
    }
  }
  return runs;
}

}  // namespace

void SliceEvaluator::Schedule(const SliceSet& set, int64_t first_row,
                              const SliceLineConfig& config,
                              const Sink& sink) const {
  if (set.size() == 0) return;
  TRACE_SPAN("evaluator/evaluate", set.size());
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    registry->GetCounter("evaluator/slices_evaluated")->Add(set.size());
    // Shared prefixes the loop ANDs once per word tile for all their slices.
    registry->GetCounter("evaluator/prefix_runs")->Add(CountPrefixRuns(set));
    registry
        ->GetCounter(std::string("evaluator/") +
                     EvalStrategyName(config.eval_strategy) + "/slices")
        ->Add(set.size());
    // Which ISA level the packed kernels dispatched at, attributable in
    // registry snapshots and RunReport JSON.
    registry
        ->GetCounter(std::string("evaluator/simd_isa/") +
                     linalg::SelectedIsaName())
        ->Add(set.size());
    // Slices evaluated over a store with error planes, whose dense masks
    // count error sums by popcount.
    if (store_.error_planes() != nullptr) {
      registry->GetCounter("evaluator/error_planes/slices")->Add(set.size());
    }
  }
  const RunContext* ctx = config.run_context;
  const bool parallel = config.parallel;
  // Resolve the ISA dispatch once on the coordinating thread; every worker
  // uses the same kernel table, so a concurrent ForceIsa cannot split one
  // evaluation across ISA levels.
  const linalg::SimdKernels& kernels = linalg::ActiveKernels();
  // Build the bitmaps of every column the set touches that no earlier call
  // built; built columns are immutable, so the loops read them without
  // locking.
  store_.Materialize(set.Columns(0), set.total_columns(), parallel);
  const linalg::ErrorSource errors = store_.error_source();
  const int64_t stride = errors.layout.lanes;

  // Adds the statistics of slices [begin, end) over rows [row, 64 *
  // word_end) to `out` (indexed from begin), one slab of row words per call
  // of the loop, polling governance between slabs.
  auto evaluate = [&](int64_t begin, int64_t end, int64_t row,
                      int64_t word_end, LaneStats* out) {
    std::vector<const uint64_t*> arena;
    arena.reserve(static_cast<size_t>(set.Columns(end) - set.Columns(begin)));
    for (int64_t s = begin; s < end; ++s) {
      for (int64_t k = 0; k < set.Length(s); ++k) {
        arena.push_back(store_.Column(set.Columns(s)[k]));
      }
    }
    std::vector<linalg::CandidateColumns> candidates;
    candidates.reserve(static_cast<size_t>(end - begin));
    const uint64_t* const* cols = arena.data();
    for (int64_t s = begin; s < end; ++s) {
      candidates.push_back({cols, static_cast<int32_t>(set.Length(s))});
      cols += set.Length(s);
    }
    for (int64_t w = row >> 6; w < word_end; w += linalg::kEvaluateWordTile) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      linalg::EvaluateCandidatesBlocked(
          kernels, candidates.data(), end - begin,
          std::min(word_end, w + linalg::kEvaluateWordTile), errors,
          out->sizes.data(), out->lanes.data(), out->max_bits.data(),
          std::max(row, w * 64));
    }
  };
  auto run = [&](size_t size, const std::function<void(size_t, size_t)>& body) {
    if (parallel) {
      GlobalThreadPool().ParallelForRange(size, ctx, body);
    } else {
      body(0, size);
    }
  };

  if (config.eval_strategy == SliceLineConfig::EvalStrategy::kBitset) {
    // Task-parallel over ranges of candidates, each range over all rows
    // into its own statistics, kRangeChunk candidates at a time.
    run(static_cast<size_t>(set.size()), [&](size_t begin, size_t end) {
      LaneStats stats;
      for (int64_t c = static_cast<int64_t>(begin);
           c < static_cast<int64_t>(end); c += kRangeChunk) {
        const int64_t c_end =
            std::min(static_cast<int64_t>(end), c + kRangeChunk);
        stats.Reset(c_end - c, stride);
        evaluate(c, c_end, first_row, store_.words(), &stats);
        sink(c, stats);
      }
    });
    return;
  }

  // kScanBlock: blocks of b candidates, each data-parallel over ranges of
  // row words. Every range sums into its own statistics, which join the
  // block's in whatever order the ranges finish: integer adds.
  const int64_t b = std::max(1, config.eval_block_size);
  const int64_t first_word = first_row >> 6;
  std::mutex merge;
  for (int64_t block = 0; block < set.size(); block += b) {
    if (ctx != nullptr && ctx->ShouldStop()) return;
    const int64_t block_end = std::min(block + b, set.size());
    LaneStats total;
    total.Reset(block_end - block, stride);
    run(static_cast<size_t>(store_.words() - first_word),
        [&](size_t begin, size_t end) {
          const int64_t w0 = first_word + static_cast<int64_t>(begin);
          LaneStats stats;
          stats.Reset(block_end - block, stride);
          evaluate(block, block_end, std::max(first_row, w0 * 64),
                   first_word + static_cast<int64_t>(end), &stats);
          std::lock_guard<std::mutex> lock(merge);
          std::transform(stats.lanes.begin(), stats.lanes.end(),
                         total.lanes.begin(), total.lanes.begin(),
                         std::plus<>());
          for (size_t s = 0; s < stats.sizes.size(); ++s) {
            total.sizes[s] += stats.sizes[s];
            total.max_bits[s] = std::max(total.max_bits[s], stats.max_bits[s]);
          }
        });
    sink(block, total);
  }
}

StatusOr<EvalResult> SliceEvaluator::Evaluate(
    const SliceSet& set, const SliceLineConfig& config) const {
  EvalResult out;
  const size_t count = static_cast<size_t>(set.size());
  out.sizes.assign(count, 0.0);
  out.error_sums.assign(count, 0.0);
  out.max_errors.assign(count, 0.0);
  if (count == 0) return out;
  const linalg::SumLayout layout = store_.error_source().layout;
  Schedule(set, 0, config, [&](int64_t begin, const LaneStats& stats) {
    for (size_t i = 0; i < stats.sizes.size(); ++i) {
      const size_t s = static_cast<size_t>(begin) + i;
      out.sizes[s] = static_cast<double>(stats.sizes[i]);
      out.error_sums[s] =
          linalg::RoundLanes(&stats.lanes[i * layout.lanes], layout);
      out.max_errors[s] = std::bit_cast<double>(stats.max_bits[i]);
    }
  });
  // A stop observed mid-evaluation leaves `out` incomplete; report the
  // governance status so the engine discards it and packages best-so-far
  // results from fully evaluated levels only.
  const RunContext* ctx = config.run_context;
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return out;
}

Status SliceEvaluator::Continue(const SliceSet& set, int64_t first_row,
                                const SliceLineConfig& config,
                                ExactEvalResult* stats) const {
  const linalg::SumLayout layout = store_.error_source().layout;
  Schedule(set, first_row, config, [&](int64_t begin, const LaneStats& add) {
    for (size_t i = 0; i < add.sizes.size(); ++i) {
      const size_t s = static_cast<size_t>(begin) + i;
      stats->sizes[s] += add.sizes[i];
      stats->error_sums[s].AddLanes(&add.lanes[i * layout.lanes], layout);
      stats->max_errors[s] = std::max(stats->max_errors[s],
                                      std::bit_cast<double>(add.max_bits[i]));
    }
  });
  const RunContext* ctx = config.run_context;
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return Status::OK();
}

}  // namespace sliceline::core
