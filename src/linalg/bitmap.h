#ifndef SLICELINE_LINALG_BITMAP_H_
#define SLICELINE_LINALG_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sliceline::linalg {

/// Word padding of every packed bitmap: buffers are rounded up to a multiple
/// of 8 x 64-bit words (one AVX-512 vector) so the vectorized kernels never
/// need a scalar tail loop. Padding words beyond the row count are zero and
/// stay zero under intersection, so popcounts and masked reductions over the
/// padded range are exact.
inline constexpr int64_t kBitmapWordPad = 8;

/// Number of 64-bit words backing a bitmap over `rows` rows, padded to a
/// multiple of kBitmapWordPad.
inline int64_t BitmapWords(int64_t rows) {
  const int64_t raw = (rows + 63) / 64;
  return (raw + kBitmapWordPad - 1) / kBitmapWordPad * kBitmapWordPad;
}

/// A packed row set: bit r of word r/64 is row r. The unit the SIMD
/// evaluation kernels (linalg/kernels_simd.h) operate on.
class Bitmap {
 public:
  Bitmap() : rows_(0) {}
  explicit Bitmap(int64_t rows)
      : rows_(rows), words_(static_cast<size_t>(BitmapWords(rows)), 0) {}

  int64_t rows() const { return rows_; }
  /// Padded word count (a multiple of kBitmapWordPad).
  int64_t words() const { return static_cast<int64_t>(words_.size()); }
  const uint64_t* data() const { return words_.data(); }
  uint64_t* data() { return words_.data(); }

  void Set(int64_t r) { words_[r >> 6] |= uint64_t{1} << (r & 63); }
  void Clear(int64_t r) { words_[r >> 6] &= ~(uint64_t{1} << (r & 63)); }
  bool Test(int64_t r) const {
    return (words_[r >> 6] >> (r & 63)) & uint64_t{1};
  }

  /// Scalar reference popcount (the SIMD kernels are differentially tested
  /// against this).
  int64_t PopCount() const;

  /// Set rows in ascending order (unpack; inverse of FromRows).
  std::vector<int64_t> SetRows() const;

  /// Packs a sorted-or-not list of distinct row ids into a bitmap.
  static Bitmap FromRows(int64_t rows, const std::vector<int64_t>& set_rows);

  bool operator==(const Bitmap& other) const = default;

 private:
  int64_t rows_;
  std::vector<uint64_t> words_;
};

}  // namespace sliceline::linalg

#endif  // SLICELINE_LINALG_BITMAP_H_
