#include "core/evaluator.h"

#include <algorithm>
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

void SliceSet::Reserve(int64_t slices, int64_t total_columns) {
  offsets_.reserve(offsets_.size() + slices);
  columns_.reserve(columns_.size() + total_columns);
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

/// Poll stride for governance checks inside slice loops: frequent enough to
/// stop within one batch, rare enough to stay off the profile.
constexpr int64_t kGovernanceStride = 64;

/// Words per kScanBlock row tile (4096 rows). Fixed, so the tile partial
/// sums and their tile-order merge do not depend on the thread count.
constexpr int64_t kScanTileWords = 64;

}  // namespace

void SliceEvaluator::Schedule(const SliceSet& set, int64_t first_row,
                              SliceLineConfig::EvalStrategy strategy,
                              const SliceLineConfig& config,
                              EvalResult* out) const {
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
  const int64_t words = store_.words();

  // Continues the statistics in ss/se/sm of slices [begin, end) over rows
  // [row, 64 * word_end), in chunks that double as the strided governance
  // poll boundary.
  auto evaluate = [&](int64_t begin, int64_t end, int64_t row,
                      int64_t word_end, double* ss, double* se, double* sm) {
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
    for (int64_t chunk = 0; chunk < end - begin; chunk += kGovernanceStride) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      linalg::EvaluateCandidatesBlocked(
          kernels, candidates.data() + chunk,
          std::min(kGovernanceStride, end - begin - chunk), word_end,
          store_.errors().data(), store_.error_planes(), ss + chunk,
          se + chunk, sm + chunk, row);
    }
  };

  if (strategy == SliceLineConfig::EvalStrategy::kBitset) {
    // Task-parallel over candidates, each over all rows.
    auto body = [&](size_t begin, size_t end) {
      evaluate(static_cast<int64_t>(begin), static_cast<int64_t>(end),
               first_row, words, out->sizes.data() + begin,
               out->error_sums.data() + begin,
               out->max_errors.data() + begin);
    };
    if (parallel) {
      GlobalThreadPool().ParallelForRange(static_cast<size_t>(set.size()),
                                          ctx, body);
    } else {
      body(0, static_cast<size_t>(set.size()));
    }
    return;
  }

  // kScanBlock: blocks of b candidates, each data-parallel over row tiles
  // evaluated from zeroed partials (the same add sequence per slice as a
  // row scan of the tile) and merged in tile order. Tiles run in waves of
  // one tile per thread; the wave width only bounds partial-sum memory.
  const int64_t count = set.size();
  const int64_t b = std::max(1, config.eval_block_size);
  const int64_t tiles = (words + kScanTileWords - 1) / kScanTileWords;
  const int64_t wave =
      parallel ? static_cast<int64_t>(GlobalThreadPool().num_threads()) : 1;
  struct Partial {
    std::vector<double> ss, se, sm;
  };
  std::vector<Partial> partials(static_cast<size_t>(std::min(wave, tiles)));
  for (int64_t block_begin = 0; block_begin < count; block_begin += b) {
    if (ctx != nullptr && ctx->ShouldStop()) return;
    const int64_t block_end = std::min(block_begin + b, count);
    const size_t bs = static_cast<size_t>(block_end - block_begin);
    for (int64_t wave_begin = 0; wave_begin < tiles; wave_begin += wave) {
      const int64_t wave_tiles = std::min(wave, tiles - wave_begin);
      auto run = [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          Partial& acc = partials[t];
          acc.ss.assign(bs, 0.0);
          acc.se.assign(bs, 0.0);
          acc.sm.assign(bs, 0.0);
          const int64_t w0 = (wave_begin + static_cast<int64_t>(t)) *
                             kScanTileWords;
          evaluate(block_begin, block_end, w0 * 64,
                   std::min(words, w0 + kScanTileWords), acc.ss.data(),
                   acc.se.data(), acc.sm.data());
        }
      };
      if (parallel) {
        GlobalThreadPool().ParallelForRange(static_cast<size_t>(wave_tiles),
                                            ctx, run);
      } else {
        run(0, static_cast<size_t>(wave_tiles));
      }
      if (ctx != nullptr && ctx->ShouldStop()) return;
      for (int64_t t = 0; t < wave_tiles; ++t) {
        const Partial& acc = partials[static_cast<size_t>(t)];
        for (size_t s = 0; s < bs; ++s) {
          const size_t slice = static_cast<size_t>(block_begin) + s;
          out->sizes[slice] += acc.ss[s];
          out->error_sums[slice] += acc.se[s];
          out->max_errors[slice] = std::max(out->max_errors[slice], acc.sm[s]);
        }
      }
    }
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
  TRACE_SPAN("evaluator/evaluate", set.size());
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    registry->GetCounter("evaluator/slices_evaluated")->Add(set.size());
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
    // Slices whose error statistics came from popcounts over the error
    // planes rather than the ascending float chain.
    if (store_.error_planes() != nullptr) {
      registry->GetCounter("evaluator/error_planes/slices")->Add(set.size());
    }
  }
  Schedule(set, 0, config.eval_strategy, config, &out);
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
                                EvalResult* stats) const {
  if (set.size() > 0) {
    Schedule(set, first_row, SliceLineConfig::EvalStrategy::kBitset, config,
             stats);
  }
  const RunContext* ctx = config.run_context;
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return Status::OK();
}

}  // namespace sliceline::core
