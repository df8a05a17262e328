#include <algorithm>

#include "common/checked_math.h"
#include "common/logging.h"
#include "linalg/kernels.h"
#include "obs/kernel_scope.h"

namespace sliceline::linalg {

CsrMatrix Table(const std::vector<int64_t>& rix,
                const std::vector<int64_t>& cix, int64_t rows, int64_t cols) {
  return Table(rix, cix, std::vector<double>(rix.size(), 1.0), rows, cols);
}

CsrMatrix Table(const std::vector<int64_t>& rix,
                const std::vector<int64_t>& cix,
                const std::vector<double>& weights, int64_t rows,
                int64_t cols) {
  SLICELINE_KERNEL_SCOPE("Table");
  SLICELINE_CHECK_EQ(rix.size(), cix.size());
  SLICELINE_CHECK_EQ(rix.size(), weights.size());
  // Byte-overflow check only: duplicate (r, c) triplets are summed by the
  // builder, so the triplet count may legitimately exceed rows * cols.
  int64_t triplet_bytes;
  SLICELINE_CHECK(CheckedMulInt64(
      static_cast<int64_t>(rix.size()),
      static_cast<int64_t>(2 * sizeof(int64_t) + sizeof(double)),
      &triplet_bytes))
      << "COO triplet reservation overflows: " << rix.size();
  CooBuilder builder(rows, cols);
  for (size_t k = 0; k < rix.size(); ++k) {
    builder.Add(rix[k], cix[k], weights[k]);
  }
  return builder.Build();
}

}  // namespace sliceline::linalg
