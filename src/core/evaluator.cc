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
constexpr size_t kGovernanceStride = 64;

/// Rows per kScanBlock tile. Fixed, so the tile partial sums and their
/// tile-order merge do not depend on the thread count.
constexpr int64_t kScanTileRows = 4096;

}  // namespace

void SliceEvaluator::EvaluateScanBlock(const SliceSet& set, int block_size,
                                       bool parallel, const RunContext* ctx,
                                       EvalResult* out) const {
  const data::IntMatrix& x0 = store_.x0();
  const data::FeatureOffsets& offsets = store_.offsets();
  const double* errors = store_.errors().data();
  const int64_t count = set.size();
  const int64_t n = x0.rows();
  const int64_t m = x0.cols();
  const int b = std::max(1, block_size);
  const int64_t tiles = (n + kScanTileRows - 1) / kScanTileRows;
  // Tiles run in waves of one tile per thread; the wave width only bounds
  // partial-sum memory; the merge below is in tile order either way.
  const int64_t wave =
      parallel ? static_cast<int64_t>(GlobalThreadPool().num_threads()) : 1;

  for (int64_t block_begin = 0; block_begin < count; block_begin += b) {
    if (ctx != nullptr && ctx->ShouldStop()) return;
    const int64_t block_end = std::min<int64_t>(block_begin + b, count);
    const int64_t bs = block_end - block_begin;
    // Column -> slices-in-block adjacency, plus required match counts.
    // (This mirrors the paper's X * S_b^T product: each row contributes one
    // count per matching predicate; a row is in slice s iff count == L_s.)
    std::vector<std::vector<int32_t>> col_slices(
        static_cast<size_t>(offsets.total));
    std::vector<int32_t> lengths(static_cast<size_t>(bs));
    for (int64_t s = block_begin; s < block_end; ++s) {
      lengths[s - block_begin] = static_cast<int32_t>(set.Length(s));
      for (int64_t k = 0; k < set.Length(s); ++k) {
        col_slices[set.Columns(s)[k]].push_back(
            static_cast<int32_t>(s - block_begin));
      }
    }

    struct Partial {
      std::vector<double> ss, se, sm;
    };
    auto scan = [&](int64_t tile, Partial* acc) {
      acc->ss.assign(static_cast<size_t>(bs), 0.0);
      acc->se.assign(static_cast<size_t>(bs), 0.0);
      acc->sm.assign(static_cast<size_t>(bs), 0.0);
      std::vector<int32_t> counts(static_cast<size_t>(bs), 0);
      std::vector<int32_t> touched;
      touched.reserve(static_cast<size_t>(bs));
      const int64_t row_begin = tile * kScanTileRows;
      const int64_t row_end = std::min(n, row_begin + kScanTileRows);
      for (int64_t i = row_begin; i < row_end; ++i) {
        // Row-strided governance poll; a stop mid-scan leaves this block's
        // partial sums incomplete, which is fine -- the caller discards the
        // whole EvalResult on a governance status.
        if (ctx != nullptr &&
            (i - row_begin) % (kGovernanceStride * 64) == 0 &&
            ctx->ShouldStop()) {
          return;
        }
        const int32_t* row = x0.row(i);
        touched.clear();
        for (int64_t j = 0; j < m; ++j) {
          const int64_t c = offsets.fb[j] + row[j] - 1;
          for (int32_t s : col_slices[c]) {
            if (counts[s]++ == 0) touched.push_back(s);
          }
        }
        const double e = errors[i];
        for (int32_t s : touched) {
          if (counts[s] == lengths[s]) {
            acc->ss[s] += 1.0;
            acc->se[s] += e;
            if (e > acc->sm[s]) acc->sm[s] = e;
          }
          counts[s] = 0;
        }
      }
    };

    std::vector<Partial> partials(static_cast<size_t>(std::min(wave, tiles)));
    for (int64_t wave_begin = 0; wave_begin < tiles; wave_begin += wave) {
      const int64_t wave_tiles = std::min(wave, tiles - wave_begin);
      auto run = [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          scan(wave_begin + static_cast<int64_t>(t), &partials[t]);
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
        for (int64_t s = 0; s < bs; ++s) {
          out->sizes[block_begin + s] += acc.ss[s];
          out->error_sums[block_begin + s] += acc.se[s];
          out->max_errors[block_begin + s] =
              std::max(out->max_errors[block_begin + s], acc.sm[s]);
        }
      }
    }
  }
}

void SliceEvaluator::EvaluateBitset(const SliceSet& set, bool parallel,
                                    const RunContext* ctx,
                                    EvalResult* out) const {
  // Resolve the ISA dispatch once on the coordinating thread; every worker
  // uses the same kernel table, so a concurrent ForceIsa cannot split one
  // evaluation across ISA levels.
  const linalg::SimdKernels& kernels = linalg::ActiveKernels();

  // Build the bitmaps of every column the set touches that no earlier call
  // built; built columns are immutable, so the candidate loop reads them
  // without locking.
  store_.Materialize(set.Columns(0), set.total_columns(), parallel);

  const int64_t words = store_.words();
  const double* errors = store_.errors().data();
  const linalg::ErrorPlanes* planes = store_.error_planes();
  auto body = [&](size_t begin, size_t end) {
    // Gather each candidate's column bitmap pointers into one arena, then
    // hand contiguous chunks to the cache-blocked SIMD loop. Chunks double
    // as the strided governance poll boundary.
    int64_t range_columns = 0;
    for (size_t s = begin; s < end; ++s) range_columns += set.Length(s);
    std::vector<const uint64_t*> arena;
    arena.reserve(static_cast<size_t>(range_columns));
    std::vector<size_t> arena_offsets(end - begin);
    for (size_t s = begin; s < end; ++s) {
      arena_offsets[s - begin] = arena.size();
      for (int64_t k = 0; k < set.Length(s); ++k) {
        arena.push_back(store_.Column(set.Columns(s)[k]));
      }
    }
    std::vector<linalg::CandidateColumns> candidates(end - begin);
    for (size_t s = begin; s < end; ++s) {
      candidates[s - begin] = {arena.data() + arena_offsets[s - begin],
                               static_cast<int32_t>(set.Length(s))};
    }
    for (size_t chunk = begin; chunk < end; chunk += kGovernanceStride) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      const size_t chunk_end = std::min(end, chunk + kGovernanceStride);
      linalg::EvaluateCandidatesBlocked(
          kernels, candidates.data() + (chunk - begin),
          static_cast<int64_t>(chunk_end - chunk), words, errors, planes,
          out->sizes.data() + chunk, out->error_sums.data() + chunk,
          out->max_errors.data() + chunk);
    }
  };
  if (parallel) {
    GlobalThreadPool().ParallelForRange(static_cast<size_t>(set.size()), ctx,
                                        body);
  } else {
    body(0, static_cast<size_t>(set.size()));
  }
}

StatusOr<EvalResult> SliceEvaluator::Evaluate(
    const SliceSet& set, const SliceLineConfig& config) const {
  const RunContext* ctx = config.run_context;
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
    if (config.eval_strategy == SliceLineConfig::EvalStrategy::kBitset) {
      // Which ISA level the packed kernels dispatched at, attributable in
      // registry snapshots and RunReport JSON.
      registry
          ->GetCounter(std::string("evaluator/simd_isa/") +
                       linalg::SelectedIsaName())
          ->Add(set.size());
      // Slices whose error statistics came from popcounts over the error
      // planes rather than the ascending float chain.
      if (store_.error_planes() != nullptr) {
        registry->GetCounter("evaluator/error_planes/slices")
            ->Add(set.size());
      }
    }
  }
  switch (config.eval_strategy) {
    case SliceLineConfig::EvalStrategy::kScanBlock:
      EvaluateScanBlock(set, config.eval_block_size, config.parallel, ctx,
                        &out);
      break;
    case SliceLineConfig::EvalStrategy::kBitset:
      EvaluateBitset(set, config.parallel, ctx, &out);
      break;
  }
  // A stop observed mid-evaluation leaves `out` incomplete; report the
  // governance status so the engine discards it and packages best-so-far
  // results from fully evaluated levels only.
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return out;
}

}  // namespace sliceline::core
