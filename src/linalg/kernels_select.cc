#include <algorithm>

#include "common/logging.h"
#include "linalg/kernels.h"
#include "obs/kernel_scope.h"

namespace sliceline::linalg {

CsrMatrix SelectRows(const CsrMatrix& m, const std::vector<uint8_t>& keep) {
  SLICELINE_CHECK_EQ(m.rows(), static_cast<int64_t>(keep.size()));
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < m.rows(); ++r) {
    if (keep[r]) rows.push_back(r);
  }
  return GatherRows(m, rows);
}

CsrMatrix GatherRows(const CsrMatrix& m, const std::vector<int64_t>& rows) {
  SLICELINE_KERNEL_SCOPE("GatherRows");
  std::vector<int64_t> row_ptr(rows.size() + 1, 0);
  int64_t nnz = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    SLICELINE_CHECK(rows[i] >= 0 && rows[i] < m.rows());
    nnz += m.RowNnz(rows[i]);
    row_ptr[i + 1] = nnz;
  }
  std::vector<int64_t> out_cols(nnz);
  std::vector<double> out_vals(nnz);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    std::copy(m.RowCols(r), m.RowCols(r) + m.RowNnz(r),
              out_cols.begin() + row_ptr[i]);
    std::copy(m.RowVals(r), m.RowVals(r) + m.RowNnz(r),
              out_vals.begin() + row_ptr[i]);
  }
  return CsrMatrix(static_cast<int64_t>(rows.size()), m.cols(),
                   std::move(row_ptr), std::move(out_cols),
                   std::move(out_vals));
}

CsrMatrix SelectColumns(const CsrMatrix& m, const std::vector<int64_t>& cols) {
  SLICELINE_KERNEL_SCOPE("SelectColumns");
  // Map original column -> new compact index, -1 for dropped.
  std::vector<int64_t> remap(static_cast<size_t>(m.cols()), -1);
  for (size_t j = 0; j < cols.size(); ++j) {
    SLICELINE_CHECK(cols[j] >= 0 && cols[j] < m.cols());
    if (j > 0) SLICELINE_CHECK_LT(cols[j - 1], cols[j]);
    remap[cols[j]] = static_cast<int64_t>(j);
  }
  std::vector<int64_t> row_ptr(m.rows() + 1, 0);
  std::vector<int64_t> out_cols;
  std::vector<double> out_vals;
  for (int64_t r = 0; r < m.rows(); ++r) {
    const int64_t* rcols = m.RowCols(r);
    const double* rvals = m.RowVals(r);
    const int64_t nnz = m.RowNnz(r);
    for (int64_t k = 0; k < nnz; ++k) {
      const int64_t nc = remap[rcols[k]];
      if (nc >= 0) {
        out_cols.push_back(nc);
        out_vals.push_back(rvals[k]);
      }
    }
    row_ptr[r + 1] = static_cast<int64_t>(out_cols.size());
  }
  return CsrMatrix(m.rows(), static_cast<int64_t>(cols.size()),
                   std::move(row_ptr), std::move(out_cols),
                   std::move(out_vals));
}

CsrMatrix SliceRowRange(const CsrMatrix& m, int64_t begin, int64_t end) {
  SLICELINE_KERNEL_SCOPE("SliceRowRange");
  SLICELINE_CHECK(begin >= 0 && begin <= end && end <= m.rows());
  std::vector<int64_t> rows;
  rows.reserve(end - begin);
  for (int64_t r = begin; r < end; ++r) rows.push_back(r);
  return GatherRows(m, rows);
}

}  // namespace sliceline::linalg
