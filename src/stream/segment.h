#ifndef SLICELINE_STREAM_SEGMENT_H_
#define SLICELINE_STREAM_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/column_store.h"
#include "data/int_matrix.h"
#include "data/onehot.h"

namespace sliceline::stream {

/// Append-only rows with the state incremental evaluation reads.
///
/// Owns the concatenated codes/errors, the frozen one-hot offsets, the
/// data::ColumnStore over them (level-1 statistics plus lazily built column
/// bitmaps in the global linalg/bitmap.h word layout), and the last row
/// holding each one-hot column. Because bitmaps use the global word layout,
/// an append only extends each built column's word array -- prefix words are
/// never rewritten, which is what lets cached per-candidate statistics at
/// prefix P be *continued* over rows [P, n) instead of recomputed.
///
/// Determinism invariant: every error sum is exact until it rounds once
/// (linalg::ExactSum), so after any append sequence every basic statistic
/// (and total_error) and every column bitmap is bit-identical to a
/// from-scratch build over the concatenated data.
class SegmentStore {
 public:
  /// `domains` fixes per-feature domains (frozen dictionary); empty derives
  /// them from the base column maxima, in which case appends must not
  /// exercise unseen codes.
  static StatusOr<std::unique_ptr<SegmentStore>> Create(
      data::IntMatrix base_x0, std::vector<double> base_errors,
      std::vector<int32_t> domains = {});

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Appends a delta in ascending row order. Fails (leaving the store
  /// unchanged) on column-count or domain violations and on non-finite or
  /// negative errors.
  Status Append(const data::IntMatrix& delta_x0,
                const std::vector<double>& delta_errors);

  int64_t n() const { return x0_.rows(); }
  const data::IntMatrix& x0() const { return x0_; }
  const std::vector<double>& errors() const { return errors_; }
  const data::FeatureOffsets& offsets() const { return offsets_; }

  /// Level-1 statistics and column bitmaps over all rows.
  const data::ColumnStore& columns() const { return columns_; }
  double total_error() const { return columns_.total_error(); }
  const std::vector<int64_t>& basic_sizes() const {
    return columns_.basic_sizes();
  }
  const std::vector<double>& basic_error_sums() const {
    return columns_.basic_error_sums();
  }
  const std::vector<double>& basic_max_errors() const {
    return columns_.basic_max_errors();
  }

  /// The last row holding one-hot column `col`, or -1 when no row does: no
  /// row in [P, n) holds `col` exactly when last_row(col) < P.
  int64_t last_row(int64_t col) const {
    return last_row_[static_cast<size_t>(col)];
  }

 private:
  SegmentStore(data::IntMatrix x0, std::vector<double> errors,
               data::FeatureOffsets offsets);

  /// Advances last_row_ over rows [begin, n).
  void TrackLastRows(int64_t begin);

  // Declared before columns_, which borrows them.
  data::IntMatrix x0_;
  std::vector<double> errors_;
  data::FeatureOffsets offsets_;
  data::ColumnStore columns_;
  std::vector<int64_t> last_row_;
};

}  // namespace sliceline::stream

#endif  // SLICELINE_STREAM_SEGMENT_H_
