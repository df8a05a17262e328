#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"
#include "linalg/kernels.h"
#include "obs/kernel_scope.h"

namespace sliceline::linalg {

std::vector<double> ColSums(const CsrMatrix& m) {
  SLICELINE_KERNEL_SCOPE("ColSums");
  std::vector<double> out(static_cast<size_t>(m.cols()), 0.0);
  const auto& cols = m.col_idx();
  const auto& vals = m.values();
  for (size_t k = 0; k < cols.size(); ++k) out[cols[k]] += vals[k];
  return out;
}

std::vector<double> ExactColSums(const CsrMatrix& m, const SumLayout& layout) {
  SLICELINE_KERNEL_SCOPE("ExactColSums");
  // A CSR row adds at most once to a column, and a lane holds 2^32 adds.
  SLICELINE_CHECK_LE(m.rows(), int64_t{1} << 32);
  const size_t stride = static_cast<size_t>(layout.lanes);
  std::vector<uint64_t> lanes(static_cast<size_t>(m.cols()) * stride, 0);
  const auto& cols = m.col_idx();
  const auto& vals = m.values();
  for (size_t k = 0; k < cols.size(); ++k) {
    AddToLanes(SplitForLanes(std::bit_cast<uint64_t>(vals[k]), layout.anchor),
               lanes.data() + cols[k] * stride);
  }
  std::vector<double> out(static_cast<size_t>(m.cols()));
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = RoundLanes(lanes.data() + j * stride, layout);
  }
  return out;
}

std::vector<double> ColMaxs(const CsrMatrix& m) {
  SLICELINE_KERNEL_SCOPE("ColMaxs");
  const size_t n = static_cast<size_t>(m.cols());
  std::vector<double> out(n, -std::numeric_limits<double>::infinity());
  std::vector<int64_t> counts(n, 0);
  const auto& cols = m.col_idx();
  const auto& vals = m.values();
  for (size_t k = 0; k < cols.size(); ++k) {
    out[cols[k]] = std::max(out[cols[k]], vals[k]);
    ++counts[cols[k]];
  }
  for (size_t j = 0; j < n; ++j) {
    if (counts[j] < m.rows()) out[j] = std::max(out[j], 0.0);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

std::vector<double> MatVec(const CsrMatrix& m, const std::vector<double>& x) {
  SLICELINE_KERNEL_SCOPE("MatVec");
  SLICELINE_CHECK_EQ(m.cols(), static_cast<int64_t>(x.size()));
  std::vector<double> y(static_cast<size_t>(m.rows()), 0.0);
  for (int64_t r = 0; r < m.rows(); ++r) {
    const double* vals = m.RowVals(r);
    const int64_t* cols = m.RowCols(r);
    const int64_t nnz = m.RowNnz(r);
    double acc = 0.0;
    for (int64_t k = 0; k < nnz; ++k) acc += vals[k] * x[cols[k]];
    y[r] = acc;
  }
  return y;
}

std::vector<double> TransposeMatVec(const CsrMatrix& m,
                                    const std::vector<double>& x) {
  SLICELINE_KERNEL_SCOPE("TransposeMatVec");
  SLICELINE_CHECK_EQ(m.rows(), static_cast<int64_t>(x.size()));
  std::vector<double> y(static_cast<size_t>(m.cols()), 0.0);
  for (int64_t r = 0; r < m.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* vals = m.RowVals(r);
    const int64_t* cols = m.RowCols(r);
    const int64_t nnz = m.RowNnz(r);
    for (int64_t k = 0; k < nnz; ++k) y[cols[k]] += vals[k] * xr;
  }
  return y;
}

}  // namespace sliceline::linalg
