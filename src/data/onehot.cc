#include "data/onehot.h"

#include <algorithm>
#include <string>

#include "linalg/kernels.h"

namespace sliceline::data {

int FeatureOffsets::FeatureOfColumn(int64_t col) const {
  SLICELINE_DCHECK(col >= 0 && col < total);
  auto it = std::upper_bound(fb.begin(), fb.end(), col);
  return static_cast<int>(it - fb.begin()) - 1;
}

int32_t FeatureOffsets::CodeOfColumn(int64_t col) const {
  const int f = FeatureOfColumn(col);
  return static_cast<int32_t>(col - fb[f] + 1);
}

int64_t FeatureOffsets::ColumnOf(int feature, int32_t code) const {
  SLICELINE_DCHECK(feature >= 0 && feature < num_features());
  SLICELINE_DCHECK(code >= 1 && code <= fdom[feature]);
  return fb[feature] + code - 1;
}

FeatureOffsets OffsetsFromDomains(const std::vector<int32_t>& domains) {
  FeatureOffsets offsets;
  offsets.fdom = domains;
  offsets.fb.resize(offsets.fdom.size());
  offsets.fe.resize(offsets.fdom.size());
  int64_t acc = 0;
  for (size_t j = 0; j < offsets.fdom.size(); ++j) {
    offsets.fb[j] = acc;
    acc += offsets.fdom[j];
    offsets.fe[j] = acc;
  }
  offsets.total = acc;
  return offsets;
}

FeatureOffsets ComputeOffsets(const IntMatrix& x0) {
  return OffsetsFromDomains(x0.ColMaxs());
}

StatusOr<FeatureOffsets> CheckedOffsets(const IntMatrix& x0) {
  for (int64_t i = 0; i < x0.rows(); ++i) {
    const int32_t* row = x0.row(i);
    for (int64_t j = 0; j < x0.cols(); ++j) {
      if (row[j] < 1) return CodeBelowOne(i, j, row[j]);
    }
  }
  return ComputeOffsets(x0);
}

Status CodeBelowOne(int64_t row, int64_t feature, int32_t code) {
  return Status::InvalidArgument(
      "X0 code " + std::to_string(code) + " at (" + std::to_string(row) +
      "," + std::to_string(feature) + ") is below 1");
}

linalg::CsrMatrix OneHotEncode(const IntMatrix& x0,
                               const FeatureOffsets& offsets) {
  const int64_t n = x0.rows();
  const int64_t m = x0.cols();
  std::vector<int64_t> row_ptr(n + 1);
  std::vector<int64_t> col_idx(static_cast<size_t>(n * m));
  std::vector<double> values(static_cast<size_t>(n * m), 1.0);
  for (int64_t i = 0; i <= n; ++i) row_ptr[i] = i * m;
  for (int64_t i = 0; i < n; ++i) {
    const int32_t* row = x0.row(i);
    int64_t* out = col_idx.data() + i * m;
    for (int64_t j = 0; j < m; ++j) {
      SLICELINE_CHECK(row[j] >= 1 && row[j] <= offsets.fdom[j])
          << "X0 code out of domain at (" << i << "," << j << ")";
      out[j] = offsets.fb[j] + row[j] - 1;
    }
  }
  return linalg::CsrMatrix(n, offsets.total, std::move(row_ptr),
                           std::move(col_idx), std::move(values));
}

linalg::CsrMatrix OneHotEncodeViaTable(const IntMatrix& x0,
                                       const FeatureOffsets& offsets) {
  const int64_t n = x0.rows();
  const int64_t m = x0.cols();
  // rix = row index per (row, feature) pair; cix = X0 + fb (0-based here).
  std::vector<int64_t> rix;
  std::vector<int64_t> cix;
  rix.reserve(static_cast<size_t>(n * m));
  cix.reserve(static_cast<size_t>(n * m));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      rix.push_back(i);
      cix.push_back(offsets.fb[j] + x0.At(i, j) - 1);
    }
  }
  return linalg::Table(rix, cix, n, offsets.total);
}

}  // namespace sliceline::data
