#ifndef SLICELINE_DATA_COLUMN_STORE_H_
#define SLICELINE_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "data/int_matrix.h"
#include "data/onehot.h"

namespace sliceline::data {

/// The column view of the paper's one-hot X, computed straight from the
/// integer codes: the level-1 statistics of every one-hot column (Equation
/// 4: sizes ss0, error sums se0, maximum tuple errors sm0, plus the total
/// error) and per-column packed row bitmaps in the linalg/bitmap.h word
/// layout (bit r%64 of word r/64 is row r, words padded to kBitmapWordPad).
///
/// Statistics are computed eagerly in one ascending-row pass, so every
/// float statistic is one ascending-row add chain. Bitmaps are built lazily:
/// Materialize fills every requested column that is not built yet in one
/// row-major pass over the codes, so ultra-wide one-hot spaces only pay for
/// the columns candidate slices touch.
///
/// Borrows the codes, offsets and errors, which must outlive the store. The
/// owner may append rows to the codes and errors and then call Extend.
///
/// Thread safety: Materialize is serialized by an internal mutex; Column and
/// the statistics are safe to read concurrently with Materialize for columns
/// already built. Extend must not run concurrently with anything.
class ColumnStore {
 public:
  /// CHECK-fails on an error vector of the wrong size, a negative error, or
  /// a code outside its feature's domain.
  ColumnStore(const IntMatrix& x0, const FeatureOffsets& offsets,
              const std::vector<double>& errors);

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  const IntMatrix& x0() const { return *x0_; }
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
  /// in ascending row order, and into the columns already built.
  void Extend();

 private:
  /// Adds rows [begin, end) to the statistics.
  void AccumulateStats(int64_t begin, int64_t end);
  /// Sets bit r of dst[c] for every row r in [begin, end) whose one-hot
  /// encoding contains column c; columns with a null dst are skipped.
  void SetBits(int64_t begin, int64_t end, uint64_t* const* dst) const;

  const IntMatrix* x0_;
  const FeatureOffsets* offsets_;
  const std::vector<double>* errors_;
  int64_t n_ = 0;
  int64_t words_ = 0;

  double total_error_ = 0.0;
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
