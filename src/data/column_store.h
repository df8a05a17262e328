#ifndef SLICELINE_DATA_COLUMN_STORE_H_
#define SLICELINE_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "data/int_matrix.h"
#include "data/onehot.h"
#include "linalg/kernels_simd.h"

namespace sliceline::data {

/// Decides, one error at a time, whether an error vector is exactly
/// summable: every error is k_i * u for one power of two u = 2^low and
/// non-negative integers k_i with sum k_i < 2^53 and u <= 2^970.
///
/// Why that makes the sum order irrelevant: every partial sum of such
/// errors, over any subset in any order, is u * K for an integer
/// 0 <= K < 2^53, and every such value is a finite double (an integer below
/// 2^53 times a power of two between 2^-1074 and 2^970). A float addition
/// whose exact result is a double returns that result, so each add of the
/// ascending chain is exact and the chain returns u * (sum of k) — the
/// value u * K computed from integer counts, whatever order produced K. The
/// maximum is order-free anyway and equals u * (max k). So on these inputs
/// the popcount statistics over error bit-planes are bit-identical to the
/// chain. Classification inaccuracy (0/1) and errors on a dyadic grid
/// (multiples of 0.25, say) qualify; squared regression losses generally
/// do not.
///
/// u is the finest power of two any non-zero error needs, so it only
/// shrinks as errors arrive; when it does, the earlier k_i double per step.
/// Once a vector fails the test, every extension of it fails too.
class ErrorGrid {
 public:
  /// Folds one non-negative error in; returns exact().
  bool Add(double e);

  bool exact() const { return exact_; }
  /// The unit u (1.0 while every error is zero).
  double unit() const;
  /// Exponent of the unit: u == 2^low_exponent().
  int low_exponent() const { return low_; }
  /// Bits the largest k_i needs (0 while every error is zero).
  int planes() const { return any_ ? top_ - low_ : 0; }
  /// Sum of the k_i.
  uint64_t units() const { return units_; }

 private:
  bool exact_ = true;
  bool any_ = false;  // a non-zero error has arrived
  int low_ = 0;       // u == 2^low_
  int top_ = 0;       // every error < 2^top_
  uint64_t units_ = 0;
};

/// The column view of the paper's one-hot X, computed straight from the
/// integer codes: the level-1 statistics of every one-hot column (Equation
/// 4: sizes ss0, error sums se0, maximum tuple errors sm0, plus the total
/// error) and per-column packed row bitmaps in the linalg/bitmap.h word
/// layout (bit r%64 of word r/64 is row r, words padded to kBitmapWordPad).
///
/// Statistics are computed eagerly in one ascending-row pass per feature
/// (features run in parallel on the global pool for large inputs; each
/// owns its columns), so every float statistic is one ascending-row add
/// chain. The same pass over the errors runs the ErrorGrid test; when the
/// errors are exactly summable with at most kMaxErrorPlanes planes, the
/// store also holds the bits of each row's k_i as row bitmaps (the error
/// planes), from which the evaluators count error sums by popcount.
/// Bitmaps are built lazily: Materialize fills every requested column that
/// is not built yet in one row-major pass over the codes, so ultra-wide
/// one-hot spaces only pay for the columns candidate slices touch.
///
/// Borrows the codes, offsets and errors, which must outlive the store. The
/// owner may append rows to the codes and errors and then call Extend.
///
/// Thread safety: Materialize is serialized by an internal mutex; Column and
/// the statistics are safe to read concurrently with Materialize for columns
/// already built. Extend must not run concurrently with anything.
class ColumnStore {
 public:
  /// Most error planes the store keeps; errors whose largest k_i needs more
  /// bits keep the ascending chain.
  static constexpr int kMaxErrorPlanes = 16;

  /// CHECK-fails on an error vector of the wrong size, a negative error, or
  /// a code outside its feature's domain.
  ColumnStore(const IntMatrix& x0, const FeatureOffsets& offsets,
              const std::vector<double>& errors);

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  const FeatureOffsets& offsets() const { return *offsets_; }
  const std::vector<double>& errors() const { return *errors_; }
  int64_t rows() const { return n_; }

  double total_error() const { return total_error_; }
  const std::vector<int64_t>& basic_sizes() const { return basic_sizes_; }
  const std::vector<double>& basic_error_sums() const {
    return basic_error_sums_;
  }
  const std::vector<double>& basic_max_errors() const {
    return basic_max_errors_;
  }

  /// The error planes over all rows, or nullptr when the errors are not
  /// exactly summable within kMaxErrorPlanes planes. Valid until the next
  /// Extend.
  const linalg::ErrorPlanes* error_planes() const {
    return has_planes_ ? &planes_view_ : nullptr;
  }

  /// Padded 64-bit words per column bitmap (linalg::BitmapWords(rows())).
  int64_t words() const { return words_; }

  /// Builds the bitmap of every listed column (duplicates allowed) that is
  /// not built yet, in one row-major pass over the codes. With `parallel`
  /// the pass splits into 64-row-aligned ranges on the global thread pool;
  /// each range owns whole words, so the bits are the same either way.
  void Materialize(const int64_t* cols, int64_t count, bool parallel) const;

  /// Packed words of column `col`, or nullptr when it is not built. Valid
  /// until the next Extend.
  const uint64_t* Column(int64_t col) const {
    return built_[static_cast<size_t>(col)]
               ? columns_[static_cast<size_t>(col)].data()
               : nullptr;
  }

  /// Columns built so far and the bytes their bitmaps hold.
  int64_t built() const;
  int64_t memory_bytes() const;

  /// Folds the rows the owner appended to the borrowed codes and errors
  /// (rows [rows(), x0.rows())) into the statistics, continuing every chain
  /// in ascending row order, into the columns already built, and into the
  /// error planes (rescaled when the new rows need a finer unit; dropped
  /// for good when they leave the grid), so the store equals a one-shot
  /// build over all rows.
  void Extend();

 private:
  /// Adds rows [begin, end) to the statistics and the error planes.
  void AccumulateStats(int64_t begin, int64_t end);
  /// Adds the codes of rows [begin, end) to the level-1 statistics of the
  /// columns of features [feature_begin, feature_end).
  void AccumulateColumns(int64_t begin, int64_t end, int64_t feature_begin,
                         int64_t feature_end);
  /// Sets the plane bits of rows [begin, end) after growing the planes to
  /// the grid's unit and width.
  void FillPlanes(int64_t begin, int64_t end);
  /// Sets bit r of dst[c] for every row r in [begin, end) whose one-hot
  /// encoding contains column c; columns with a null dst are skipped.
  void SetBits(int64_t begin, int64_t end, uint64_t* const* dst) const;

  const IntMatrix* x0_;
  const FeatureOffsets* offsets_;
  const std::vector<double>* errors_;
  int64_t n_ = 0;
  int64_t words_ = 0;

  double total_error_ = 0.0;
  ErrorGrid grid_;
  bool has_planes_ = true;
  int planes_low_ = 0;  // unit exponent the planes were built with
  std::vector<std::vector<uint64_t>> planes_;
  std::vector<const uint64_t*> plane_words_;
  linalg::ErrorPlanes planes_view_;
  std::vector<int64_t> basic_sizes_;
  std::vector<double> basic_error_sums_;
  std::vector<double> basic_max_errors_;

  // Indexed by one-hot column; a column's words are allocated when it is
  // built and never move until Extend. built_ is written under mutex_ only.
  mutable std::vector<std::vector<uint64_t>> columns_;
  mutable std::vector<uint8_t> built_;
  mutable std::mutex mutex_;
};

}  // namespace sliceline::data

#endif  // SLICELINE_DATA_COLUMN_STORE_H_
