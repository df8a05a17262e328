#ifndef SLICELINE_STREAM_SEGMENT_H_
#define SLICELINE_STREAM_SEGMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/column_store.h"
#include "data/int_matrix.h"
#include "data/onehot.h"

namespace sliceline::stream {

/// One ingested delta: rows [row_begin, row_end) of the concatenated
/// dataset, plus the fingerprint of the dataset *after* this append
/// (chained FNV-style onto the previous fingerprint) and the ingest
/// timestamp (for wall-clock sliding windows).
struct DeltaSegment {
  int64_t row_begin = 0;
  int64_t row_end = 0;
  uint64_t fingerprint = 0;
  double ingest_seconds = 0.0;
};

/// Chains a delta (codes + errors) onto a parent fingerprint with the same
/// FNV-1a scheme the dataset registry uses, so any append sequence yields a
/// fingerprint chain: fp_k = Chain(fp_{k-1}, delta_k). Two different append
/// orders, or the same rows split differently, yield different chains.
uint64_t ChainFingerprint(uint64_t parent, const data::IntMatrix& delta,
                          const std::vector<double>& errors);

/// Computes the base fingerprint of an (x0, errors) pair (chain seed).
uint64_t BaseFingerprint(const data::IntMatrix& x0,
                         const std::vector<double>& errors);

/// Mergeable per-segment slice state for incremental evaluation.
///
/// Owns the concatenated codes/errors, the frozen one-hot offsets, the delta
/// segment list, and the data::ColumnStore over them (level-1 statistics
/// plus lazily built column bitmaps in the global linalg/bitmap.h word
/// layout). Because bitmaps use the global word layout, an append only
/// extends each built column's word array -- prefix words are never
/// rewritten, which is what lets cached per-candidate statistics at prefix
/// P be *continued* over rows [P, n) instead of recomputed.
///
/// Determinism invariant: every error sum is exact until it rounds once
/// (linalg::ExactSum), so after any append sequence every basic statistic
/// (and total_error) and every column bitmap is bit-identical to a
/// from-scratch build over the concatenated data.
///
/// Segments compact LSM-style: when the delta rows exceed a configured
/// fraction of the base, MaybeCompact folds all segments into the base.
/// Compaction is pure metadata — bitmaps and statistics are already global —
/// so it never changes a statistic; it only drops the per-boundary
/// column counts used by the untouched-column fast path.
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
                const std::vector<double>& delta_errors,
                double ingest_seconds = 0.0);

  /// Folds all delta segments into the base when delta rows exceed
  /// `ratio` * base rows. Returns true when a compaction happened.
  bool MaybeCompact(double ratio);
  void Compact();

  int64_t n() const { return x0_.rows(); }
  int64_t base_rows() const { return base_rows_; }
  int64_t compactions() const { return compactions_; }
  uint64_t fingerprint() const { return fingerprint_; }
  const data::IntMatrix& x0() const { return x0_; }
  const std::vector<double>& errors() const { return errors_; }
  const data::FeatureOffsets& offsets() const { return offsets_; }
  const std::vector<DeltaSegment>& segments() const { return segments_; }

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

  /// Cumulative per-column row counts at segment boundary `row` (the counts
  /// over rows [0, row)), or nullptr when `row` is not a live boundary
  /// (e.g. after compaction). Row 0 is always a boundary.
  const std::vector<int64_t>* BoundaryCounts(int64_t row) const;

 private:
  SegmentStore(data::IntMatrix x0, std::vector<double> errors,
               data::FeatureOffsets offsets);

  // Declared before columns_, which borrows them.
  data::IntMatrix x0_;
  std::vector<double> errors_;
  data::FeatureOffsets offsets_;
  data::ColumnStore columns_;

  uint64_t fingerprint_ = 0;
  int64_t base_rows_ = 0;
  int64_t compactions_ = 0;
  std::vector<DeltaSegment> segments_;
  // boundary row -> per-column cumulative counts over [0, row).
  std::map<int64_t, std::vector<int64_t>> boundary_counts_;
};

}  // namespace sliceline::stream

#endif  // SLICELINE_STREAM_SEGMENT_H_
