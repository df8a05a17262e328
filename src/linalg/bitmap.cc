#include "linalg/bitmap.h"

#include <bit>

#include "common/logging.h"

namespace sliceline::linalg {

int64_t Bitmap::PopCount() const {
  int64_t total = 0;
  for (uint64_t w : words_) total += std::popcount(w);
  return total;
}

std::vector<int64_t> Bitmap::SetRows() const {
  std::vector<int64_t> out;
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out.push_back(static_cast<int64_t>(w) * 64 + bit);
    }
  }
  return out;
}

Bitmap Bitmap::FromRows(int64_t rows, const std::vector<int64_t>& set_rows) {
  Bitmap bm(rows);
  for (int64_t r : set_rows) {
    SLICELINE_DCHECK(r >= 0 && r < rows);
    bm.Set(r);
  }
  return bm;
}

}  // namespace sliceline::linalg
