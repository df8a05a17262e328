#include "testing/reference_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "linalg/exact_sum.h"

namespace sliceline::testing {
namespace ref {

using linalg::CsrMatrix;
using linalg::DenseMatrix;

std::vector<double> ColSums(const CsrMatrix& m) {
  const DenseMatrix d = m.ToDense();
  std::vector<double> out(static_cast<size_t>(d.cols()), 0.0);
  for (int64_t c = 0; c < d.cols(); ++c) {
    for (int64_t r = 0; r < d.rows(); ++r) out[c] += d.At(r, c);
  }
  return out;
}

std::vector<double> ExactColSums(const CsrMatrix& m) {
  const DenseMatrix d = m.ToDense();
  std::vector<double> out(static_cast<size_t>(d.cols()), 0.0);
  for (int64_t c = 0; c < d.cols(); ++c) {
    linalg::ExactSum sum;
    for (int64_t r = 0; r < d.rows(); ++r) sum.Add(d.At(r, c));
    out[c] = sum.ToDouble();
  }
  return out;
}

std::vector<double> ColMaxs(const CsrMatrix& m) {
  // Implicit zeros participate automatically: a column with an absent entry
  // has a 0.0 in the dense view (the CSR invariant forbids stored zeros).
  const DenseMatrix d = m.ToDense();
  std::vector<double> out(static_cast<size_t>(d.cols()), 0.0);
  for (int64_t c = 0; c < d.cols(); ++c) {
    double mx = -std::numeric_limits<double>::infinity();
    for (int64_t r = 0; r < d.rows(); ++r) mx = std::max(mx, d.At(r, c));
    out[c] = d.rows() == 0 ? 0.0 : mx;
  }
  return out;
}

std::vector<double> MatVec(const CsrMatrix& m, const std::vector<double>& x) {
  return m.ToDense().MatVec(x);
}

std::vector<double> TransposeMatVec(const CsrMatrix& m,
                                    const std::vector<double>& x) {
  return m.ToDense().TransposeMatVec(x);
}

DenseMatrix Transpose(const CsrMatrix& m) { return m.ToDense().Transpose(); }

DenseMatrix Multiply(const CsrMatrix& a, const CsrMatrix& b) {
  return a.ToDense().MatMul(b.ToDense());
}

DenseMatrix MultiplyABt(const CsrMatrix& a, const CsrMatrix& b) {
  return a.ToDense().MatMul(b.ToDense().Transpose());
}

DenseMatrix FilterEquals(const CsrMatrix& m, double target) {
  const DenseMatrix d = m.ToDense();
  DenseMatrix out(d.rows(), d.cols(), 0.0);
  for (int64_t r = 0; r < d.rows(); ++r) {
    for (int64_t c = 0; c < d.cols(); ++c) {
      if (d.At(r, c) == target && target != 0.0) out.At(r, c) = 1.0;
    }
  }
  return out;
}

DenseMatrix ScaleRows(const CsrMatrix& m, const std::vector<double>& scale) {
  const DenseMatrix d = m.ToDense();
  DenseMatrix out(d.rows(), d.cols(), 0.0);
  for (int64_t r = 0; r < d.rows(); ++r) {
    for (int64_t c = 0; c < d.cols(); ++c) out.At(r, c) = d.At(r, c) * scale[r];
  }
  return out;
}

DenseMatrix Add(const CsrMatrix& a, const CsrMatrix& b) {
  const DenseMatrix da = a.ToDense();
  const DenseMatrix db = b.ToDense();
  DenseMatrix out(da.rows(), da.cols(), 0.0);
  for (int64_t r = 0; r < da.rows(); ++r) {
    for (int64_t c = 0; c < da.cols(); ++c) {
      out.At(r, c) = da.At(r, c) + db.At(r, c);
    }
  }
  return out;
}

DenseMatrix Binarize(const CsrMatrix& m) {
  const DenseMatrix d = m.ToDense();
  DenseMatrix out(d.rows(), d.cols(), 0.0);
  for (int64_t r = 0; r < d.rows(); ++r) {
    for (int64_t c = 0; c < d.cols(); ++c) {
      if (d.At(r, c) != 0.0) out.At(r, c) = 1.0;
    }
  }
  return out;
}

std::vector<std::pair<int64_t, int64_t>> UpperTriEquals(const CsrMatrix& m,
                                                        double target) {
  const DenseMatrix d = m.ToDense();
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int64_t r = 0; r < d.rows(); ++r) {
    for (int64_t c = r + 1; c < d.cols(); ++c) {
      if (d.At(r, c) == target && target != 0.0) out.emplace_back(r, c);
    }
  }
  return out;
}

DenseMatrix SelectRows(const CsrMatrix& m, const std::vector<uint8_t>& keep) {
  const DenseMatrix d = m.ToDense();
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < d.rows(); ++r) {
    if (keep[r] != 0) rows.push_back(r);
  }
  return GatherRows(m, rows);
}

DenseMatrix GatherRows(const CsrMatrix& m, const std::vector<int64_t>& rows) {
  const DenseMatrix d = m.ToDense();
  DenseMatrix out(static_cast<int64_t>(rows.size()), d.cols(), 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int64_t c = 0; c < d.cols(); ++c) {
      out.At(static_cast<int64_t>(i), c) = d.At(rows[i], c);
    }
  }
  return out;
}

DenseMatrix SelectColumns(const CsrMatrix& m,
                          const std::vector<int64_t>& cols) {
  const DenseMatrix d = m.ToDense();
  DenseMatrix out(d.rows(), static_cast<int64_t>(cols.size()), 0.0);
  for (int64_t r = 0; r < d.rows(); ++r) {
    for (size_t j = 0; j < cols.size(); ++j) {
      out.At(r, static_cast<int64_t>(j)) = d.At(r, cols[j]);
    }
  }
  return out;
}

DenseMatrix SliceRowRange(const CsrMatrix& m, int64_t begin, int64_t end) {
  const DenseMatrix d = m.ToDense();
  DenseMatrix out(end - begin, d.cols(), 0.0);
  for (int64_t r = begin; r < end; ++r) {
    for (int64_t c = 0; c < d.cols(); ++c) out.At(r - begin, c) = d.At(r, c);
  }
  return out;
}

DenseMatrix Table(const std::vector<int64_t>& rix,
                  const std::vector<int64_t>& cix, int64_t rows, int64_t cols) {
  DenseMatrix out(rows, cols, 0.0);
  for (size_t k = 0; k < rix.size(); ++k) out.At(rix[k], cix[k]) += 1.0;
  return out;
}

}  // namespace ref

std::string CheckCsrInvariants(const linalg::CsrMatrix& m) {
  std::ostringstream os;
  const auto& row_ptr = m.row_ptr();
  const auto& col_idx = m.col_idx();
  const auto& values = m.values();
  if (static_cast<int64_t>(row_ptr.size()) != m.rows() + 1) {
    return "row_ptr size mismatch";
  }
  if (row_ptr.front() != 0 ||
      row_ptr.back() != static_cast<int64_t>(col_idx.size()) ||
      col_idx.size() != values.size()) {
    return "row_ptr endpoints / array sizes inconsistent";
  }
  for (int64_t r = 0; r < m.rows(); ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      os << "row_ptr not monotone at row " << r;
      return os.str();
    }
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] < 0 || col_idx[k] >= m.cols()) {
        os << "column out of range at row " << r;
        return os.str();
      }
      if (k > row_ptr[r] && col_idx[k] <= col_idx[k - 1]) {
        os << "columns not strictly ascending at row " << r;
        return os.str();
      }
      if (values[k] == 0.0) {
        os << "stored explicit zero at (" << r << "," << col_idx[k] << ")";
        return os.str();
      }
    }
  }
  return "";
}

std::string CompareToDense(const linalg::CsrMatrix& actual,
                           const linalg::DenseMatrix& expected,
                           double tolerance, const std::string& label) {
  std::ostringstream os;
  std::string invariants = CheckCsrInvariants(actual);
  if (!invariants.empty()) {
    os << label << ": CSR invariant violated: " << invariants;
    return os.str();
  }
  if (actual.rows() != expected.rows() || actual.cols() != expected.cols()) {
    os << label << ": shape mismatch " << actual.rows() << "x" << actual.cols()
       << " vs " << expected.rows() << "x" << expected.cols();
    return os.str();
  }
  const linalg::DenseMatrix got = actual.ToDense();
  for (int64_t r = 0; r < got.rows(); ++r) {
    for (int64_t c = 0; c < got.cols(); ++c) {
      const double a = got.At(r, c);
      const double e = expected.At(r, c);
      if (std::abs(a - e) > tolerance) {
        os << label << ": mismatch at (" << r << "," << c << "): got " << a
           << " want " << e;
        return os.str();
      }
    }
  }
  return "";
}

std::string CompareVectors(const std::vector<double>& actual,
                           const std::vector<double>& expected,
                           double tolerance, const std::string& label) {
  std::ostringstream os;
  if (actual.size() != expected.size()) {
    os << label << ": length mismatch " << actual.size() << " vs "
       << expected.size();
    return os.str();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    const bool both_inf = std::isinf(actual[i]) && std::isinf(expected[i]) &&
                          (actual[i] > 0) == (expected[i] > 0);
    if (!both_inf && std::abs(actual[i] - expected[i]) > tolerance) {
      os << label << ": mismatch at [" << i << "]: got " << actual[i]
         << " want " << expected[i];
      return os.str();
    }
  }
  return "";
}

linalg::CsrMatrix RandomCsr(Rng& rng, int64_t max_rows, int64_t max_cols) {
  return RandomCsrShaped(rng, rng.NextInt(1, max_rows),
                         rng.NextInt(1, max_cols));
}

linalg::CsrMatrix RandomCsrShaped(Rng& rng, int64_t rows, int64_t cols) {
  const double density = rng.NextDouble(0.0, 0.9);
  linalg::CooBuilder builder(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (!rng.NextBool(density)) continue;
      // Small integers dominate so equality kernels and Add-cancellation see
      // collisions; occasional continuous values cover the general case.
      double v;
      if (rng.NextBool(0.7)) {
        v = static_cast<double>(rng.NextInt(-3, 3));
        if (v == 0.0) continue;  // keep the no-stored-zeros invariant
      } else {
        v = rng.NextDouble(-2.0, 2.0);
        if (v == 0.0) continue;
      }
      builder.Add(r, c, v);
    }
  }
  return builder.Build();
}

}  // namespace sliceline::testing
