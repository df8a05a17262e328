#ifndef SLICELINE_DATA_COLUMN_STORE_H_
#define SLICELINE_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "data/int_matrix.h"
#include "data/onehot.h"
#include "linalg/exact_sum.h"
#include "linalg/kernels_simd.h"

namespace sliceline::data {

struct CodeScan;

/// The bit spread of an error vector, folded in one error at a time. Every
/// finite, non-negative double is an odd integer times a power of two, so
/// every error is k_i * 2^low for the lowest set bit 2^low of the vector and
/// integers 0 <= k_i < 2^(top - low). The spread fixes the layout of the
/// vector's exact sums (linalg::SumLayout) and decides whether the store
/// keeps error planes: the bits of each k_i as row bitmaps. 0/1 errors need
/// one plane and quarters a few; squared losses span dozens of bits.
///
/// low only falls and top only rises as errors arrive; when low falls, the
/// earlier k_i double once per step.
class ErrorGrid {
 public:
  /// Folds one finite, non-negative error in.
  void Add(double e);
  /// Folds in every error another grid has seen.
  void Add(const ErrorGrid& other);

  /// Exponent of the unit: every error is a multiple of 2^low_exponent()
  /// (0 while every error is zero).
  int low_exponent() const { return low_; }
  /// Every error is below 2^top_exponent().
  int top_exponent() const { return top_; }
  /// Bits the largest k_i needs (0 while every error is zero).
  int planes() const { return any_ ? top_ - low_ : 0; }
  /// The layout of the vector's exact sums.
  linalg::SumLayout layout() const {
    return linalg::SumLayout::ForBits(low_, top_);
  }

 private:
  bool any_ = false;  // a non-zero error has arrived
  int low_ = 0;       // every error is a multiple of 2^low_
  int top_ = 0;       // every error < 2^top_
};

/// The column view of the paper's one-hot X, computed straight from the
/// integer codes: the level-1 statistics of every one-hot column (Equation
/// 4: sizes ss0, error sums se0, maximum tuple errors sm0, plus the total
/// error) and per-column packed row bitmaps in the linalg/bitmap.h word
/// layout (bit r%64 of word r/64 is row r, words padded to kBitmapWordPad).
///
/// The statistics are built in two passes over 64-row-aligned row ranges,
/// at most one range per pool thread (Section 4.4's row partitions; inputs
/// below kParallelCodeCells codes, or too few per range for its private
/// state, stay on the calling thread). Each range owns whole plane words
/// and accumulates into private buffers; the ranges merge by integer adds,
/// maxima and minima, so the store is bit-identical at every pool size.
///  1. Codes and errors: each feature's largest code (the offsets, unless
///     the caller fixes the domains), the first code below 1 or past a
///     fixed domain, the rows per code (the column sizes), the error checks
///     and the ErrorGrid.
///  2. Exact column sums (linalg::ExactSum, rounded to a double once) and
///     maxima, and the error planes when the largest k_i needs at most
///     kMaxErrorPlanes bits.
/// Bitmaps are built lazily: Materialize fills the requested columns that
/// are not built yet, so ultra-wide one-hot spaces only pay for the columns
/// candidate slices touch. The fill splits the rows the same way and runs
/// the kernel table's fill_words per feature: the vector levels compare each
/// 64-row word's codes with each listed code and store the mask as that
/// column's word; the scalar level, and a feature listing a code of 255 or
/// more, OR one bit per code into a word buffer instead. Either way each
/// word is stored once, and a new bitmap is not zeroed first.
///
/// Borrows the codes and errors (and the offsets, when the caller gives
/// them), which must outlive the store. The owner may append rows to the
/// codes and errors and then call Extend.
///
/// Thread safety: Materialize is serialized by an internal mutex; Column and
/// the statistics are safe to read concurrently with Materialize for columns
/// already built. Extend must not run concurrently with anything.
class ColumnStore {
 public:
  /// Most error planes the store keeps; errors whose largest k_i needs more
  /// bits sum through the exact masked kernel alone.
  static constexpr int kMaxErrorPlanes = 16;
  /// Codes (rows times features) below which a pass stays on the calling
  /// thread: small inputs finish before a pool round trip would.
  static constexpr int64_t kParallelCodeCells = int64_t{1} << 18;
  /// A pass splits its rows into ranges only while each range reads at
  /// least kCodesPerStateWord codes per word of its private state (the
  /// accumulators are sized to the one-hot width, and the merge walks them
  /// once per range) and that state holds at most kMaxRangeState words:
  /// each range keeps its own copy, and past that size the copies cost
  /// memory and merge time that the split does not win back.
  static constexpr int64_t kCodesPerStateWord = 16;
  static constexpr int64_t kMaxRangeState = int64_t{1} << 14;

  /// Builds over codes laid out by `offsets` (fixed domains), every bitmap
  /// lazy. CHECK-fails on an error vector of the wrong size, a negative or
  /// non-finite error, or a code outside its feature's domain.
  ColumnStore(const IntMatrix& x0, const FeatureOffsets& offsets,
              const std::vector<double>& errors);

  /// Builds over offsets derived from the codes (colMaxs, as
  /// ComputeOffsets), which the store owns, every bitmap lazy. Returns
  /// InvalidArgument on an error vector of the wrong size, a negative or
  /// non-finite error, or a code below 1.
  static StatusOr<std::unique_ptr<ColumnStore>> Build(
      const IntMatrix& x0, const std::vector<double>& errors);

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
  /// The exact sums basic_error_sums() rounds.
  const std::vector<linalg::ExactSum>& exact_basic_error_sums() const {
    return exact_basic_error_sums_;
  }

  /// The error planes over all rows, or nullptr when the errors span more
  /// than kMaxErrorPlanes bits. Valid until the next Extend.
  const linalg::ErrorPlanes* error_planes() const {
    return has_planes_ ? &planes_view_ : nullptr;
  }
  /// The errors, their sum layout and planes, as the evaluation loop reads
  /// them. Valid until the next Extend.
  linalg::ErrorSource error_source() const {
    return {errors_->data(), grid_.layout(), error_planes()};
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

  /// Runs the build's two passes and the fill of the columns already built
  /// over the rows the owner appended to the borrowed codes and errors (rows
  /// [rows(), x0.rows())), folding them into the exact statistics, into
  /// those columns, and into the error planes (rescaled when the new rows
  /// need a finer unit; dropped for good once the spread exceeds
  /// kMaxErrorPlanes), so the store equals a one-shot build over all rows.
  /// CHECK-fails on rows the constructor would reject.
  void Extend();

 private:
  ColumnStore(const IntMatrix& x0, const FeatureOffsets* offsets,
              const std::vector<double>& errors);

  /// Runs both passes over rows [rows(), x0.rows()) and folds them into the
  /// statistics, the error planes and the columns already built. Derives
  /// the offsets first when the store has none. Leaves the store unchanged
  /// when it returns an error.
  Status Accumulate();
  /// Checks pass 1's ranges, derives the offsets when the store has none,
  /// and folds in the column sizes and the error grid; sizes the
  /// statistics, the row count and the planes for the new rows.
  Status MergeScans(const std::vector<CodeScan>& scans);
  /// Builds rows [begin, rows()) of the bitmaps of `cols` (ascending,
  /// distinct), growing them to words() words first; they already hold the
  /// rows before `begin`. A word holding rows before `begin` is rebuilt
  /// whole from their codes, which gives the same bits.
  void Fill(const std::vector<int64_t>& cols, int64_t begin,
            bool parallel) const;
  /// Grows the planes to the grid's unit and width, moving the earlier rows'
  /// bits up when the unit got finer.
  void ResizePlanes();

  const IntMatrix* x0_;
  FeatureOffsets owned_offsets_;  // derived by Build
  const FeatureOffsets* offsets_;
  const std::vector<double>* errors_;
  int64_t n_ = 0;
  int64_t words_ = 0;

  double total_error_ = 0.0;
  linalg::ExactSum exact_total_error_;
  ErrorGrid grid_;
  bool has_planes_ = true;
  int planes_low_ = 0;  // unit exponent the planes were built with
  std::vector<std::vector<uint64_t>> planes_;
  std::vector<const uint64_t*> plane_words_;
  linalg::ErrorPlanes planes_view_;
  std::vector<int64_t> basic_sizes_;
  std::vector<double> basic_error_sums_;
  std::vector<double> basic_max_errors_;
  std::vector<linalg::ExactSum> exact_basic_error_sums_;

  /// Leaves the words a vector grows by unset (resize(n) without a value):
  /// the fill writes every word below the row count and zeroes the padding.
  template <class T>
  struct UnsetAllocator : std::allocator<T> {
    template <class U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
  };

  // Indexed by one-hot column; a column's words are allocated when it is
  // built and never move until Extend. built_ is written under mutex_ only.
  mutable std::vector<std::vector<uint64_t, UnsetAllocator<uint64_t>>>
      columns_;
  mutable std::vector<uint8_t> built_;
  mutable std::mutex mutex_;
};

}  // namespace sliceline::data

#endif  // SLICELINE_DATA_COLUMN_STORE_H_
