#ifndef SLICELINE_CORE_EVALUATOR_H_
#define SLICELINE_CORE_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/slice.h"
#include "data/column_store.h"
#include "data/int_matrix.h"
#include "data/onehot.h"
#include "linalg/exact_sum.h"

namespace sliceline::core {

/// A flat set of candidate slices, each a sorted list of one-hot column ids
/// (the rows of the paper's S matrix).
class SliceSet {
 public:
  SliceSet() : offsets_{0} {}

  /// Appends a slice given as sorted, distinct one-hot columns.
  void Add(const int64_t* begin, const int64_t* end);
  void Add(const std::vector<int64_t>& columns) {
    Add(columns.data(), columns.data() + columns.size());
  }
  /// Appends the slices of `width` columns each stored row-major in
  /// [begin, end), each sorted and distinct.
  void AddUniform(const int64_t* begin, const int64_t* end, int64_t width);

  int64_t size() const { return static_cast<int64_t>(offsets_.size()) - 1; }
  int64_t Length(int64_t i) const { return offsets_[i + 1] - offsets_[i]; }
  /// Total column entries across all slices (for byte accounting).
  int64_t total_columns() const { return offsets_.back(); }
  const int64_t* Columns(int64_t i) const {
    return columns_.data() + offsets_[i];
  }

  void Reserve(int64_t slices, int64_t total_columns);

 private:
  std::vector<int64_t> offsets_;
  std::vector<int64_t> columns_;
};

/// Evaluation output, aligned with the slice set (the paper's ss, se, sm).
struct EvalResult {
  std::vector<double> sizes;
  std::vector<double> error_sums;
  std::vector<double> max_errors;
};

/// Evaluation output before its error sums round: sizes, exact error sums
/// and maxima, aligned with a slice set. Statistics over any row ranges,
/// shards or appends add up to the same values in any order, and Round()
/// gives the EvalResult every backend returns.
struct ExactEvalResult {
  explicit ExactEvalResult(size_t count = 0)
      : sizes(count, 0), error_sums(count), max_errors(count, 0.0) {}

  std::vector<int64_t> sizes;
  std::vector<linalg::ExactSum> error_sums;
  std::vector<double> max_errors;

  /// Adds the statistics of slice `from` of `other` to slice `to`.
  void Add(size_t to, const ExactEvalResult& other, size_t from);
  EvalResult Round() const;
};

/// Abstract slice-evaluation backend: everything the enumeration driver
/// needs from the data side. Implemented by the local SliceEvaluator, the
/// streaming finder's caching evaluator (stream/stream_finder.h) and the
/// distributed dist::Coordinator.
class EvaluatorBackend {
 public:
  virtual ~EvaluatorBackend() = default;

  /// Evaluates every slice of `set` (sizes, error sums, max errors). A
  /// backend may fail (e.g. the distributed executor after exhausting its
  /// recovery budget); the local evaluator always succeeds.
  virtual StatusOr<EvalResult> Evaluate(const SliceSet& set,
                                        const SliceLineConfig& config) const = 0;

  /// Level-1 statistics per one-hot column (Equation 4).
  virtual const std::vector<int64_t>& basic_sizes() const = 0;
  virtual const std::vector<double>& basic_error_sums() const = 0;
  virtual const std::vector<double>& basic_max_errors() const = 0;

  virtual int64_t n() const = 0;
  virtual double total_error() const = 0;
  virtual const data::FeatureOffsets& offsets() const = 0;
};

/// Evaluates slice candidates against a dataset (Section 4.4's
/// I = (X * S^T == L) with ss/se/sm aggregations) over one column store.
/// Every strategy is a schedule of one loop, EvaluateCandidatesBlocked
/// (linalg/kernels_simd.h), which intersects the store's column bitmaps
/// with the runtime-dispatched SIMD kernels (AVX2/AVX-512/NEON with a
/// portable scalar reference): kBitset runs it task-parallel over
/// candidates (Figure 7(b) MT-PFor); kScanBlock runs it data-parallel over
/// fixed row tiles for each block of b candidates (MT-Ops, the b Figure
/// 6(b) sweeps). Error sums are exact integers until they round once, so
/// both strategies, every thread count and ISA, and Continue over any row
/// prefix give the same doubles.
class SliceEvaluator : public EvaluatorBackend {
 public:
  /// Builds a column store over (x0, offsets, errors), which must outlive
  /// the evaluator.
  SliceEvaluator(const data::IntMatrix& x0,
                 const data::FeatureOffsets& offsets,
                 const std::vector<double>& errors);
  /// Evaluates over an existing store, which must outlive the evaluator.
  explicit SliceEvaluator(const data::ColumnStore& store);

  /// Evaluates every slice of `set` using config's strategy/block size.
  StatusOr<EvalResult> Evaluate(const SliceSet& set,
                                const SliceLineConfig& config) const override;

  /// Adds the statistics of rows [first_row, n) of every slice of `set` to
  /// `*stats` (aligned with the set), with config's strategy. Over statistics
  /// of rows [0, first_row) from any source, the result rounds to the
  /// doubles an Evaluate over all n rows returns. On a governance stop
  /// returns its Status and leaves *stats incomplete.
  Status Continue(const SliceSet& set, int64_t first_row,
                  const SliceLineConfig& config, ExactEvalResult* stats) const;

  /// Level-1 statistics per one-hot column (Equation 4): sizes ss0,
  /// error sums se0, and maximum tuple errors sm0.
  const std::vector<int64_t>& basic_sizes() const override {
    return store_.basic_sizes();
  }
  const std::vector<double>& basic_error_sums() const override {
    return store_.basic_error_sums();
  }
  const std::vector<double>& basic_max_errors() const override {
    return store_.basic_max_errors();
  }
  const data::ColumnStore& store() const { return store_; }

  int64_t n() const override { return store_.rows(); }
  double total_error() const override { return store_.total_error(); }
  const data::FeatureOffsets& offsets() const override {
    return store_.offsets();
  }

 private:
  // Statistics of a run of slices as the evaluation loop adds them up:
  // sizes, accumulators of the store's sum layout, max bit patterns.
  struct LaneStats {
    /// Zeroes the statistics of `count` slices, keeping the buffers.
    void Reset(int64_t count, int64_t stride) {
      sizes.assign(static_cast<size_t>(count), 0);
      lanes.assign(static_cast<size_t>(count * stride), 0);
      max_bits.assign(static_cast<size_t>(count), 0);
    }
    std::vector<int64_t> sizes;
    std::vector<uint64_t> lanes;
    std::vector<uint64_t> max_bits;
  };
  // Receives the statistics of slices [begin, begin + size) of the set;
  // called concurrently for disjoint runs, each slice exactly once.
  using Sink = std::function<void(int64_t begin, const LaneStats& stats)>;
  // Runs config's schedule over rows [first_row, n) of the set under the
  // evaluator/evaluate span and counters, handing every slice's statistics
  // to `sink`. Polls config.run_context between slabs of
  // linalg::kEvaluateWordTile row words and between blocks, and bails out
  // early on a governance stop; the callers then report it.
  void Schedule(const SliceSet& set, int64_t first_row,
                const SliceLineConfig& config, const Sink& sink) const;

  std::unique_ptr<const data::ColumnStore> owned_store_;
  const data::ColumnStore& store_;
};

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_EVALUATOR_H_
