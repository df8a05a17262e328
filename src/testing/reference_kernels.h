#ifndef SLICELINE_TESTING_REFERENCE_KERNELS_H_
#define SLICELINE_TESTING_REFERENCE_KERNELS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"

namespace sliceline::testing {

/// Slow, obviously-correct dense counterparts of every sparse kernel in
/// linalg/kernels.h. Each one converts its CSR input to dense and computes
/// the result with straight loops; the kernel fuzzer asserts the optimized
/// sparse implementations agree on randomized matrices. These are oracles,
/// not production code: O(rows * cols) everywhere, no sparsity exploited.
namespace ref {

std::vector<double> ColSums(const linalg::CsrMatrix& m);
/// Adds each column's entries one by one into a linalg::ExactSum.
std::vector<double> ExactColSums(const linalg::CsrMatrix& m);
std::vector<double> ColMaxs(const linalg::CsrMatrix& m);
std::vector<double> MatVec(const linalg::CsrMatrix& m,
                           const std::vector<double>& x);
std::vector<double> TransposeMatVec(const linalg::CsrMatrix& m,
                                    const std::vector<double>& x);
linalg::DenseMatrix Transpose(const linalg::CsrMatrix& m);
linalg::DenseMatrix Multiply(const linalg::CsrMatrix& a,
                             const linalg::CsrMatrix& b);
linalg::DenseMatrix MultiplyABt(const linalg::CsrMatrix& a,
                                const linalg::CsrMatrix& b);
linalg::DenseMatrix FilterEquals(const linalg::CsrMatrix& m, double target);
linalg::DenseMatrix ScaleRows(const linalg::CsrMatrix& m,
                              const std::vector<double>& scale);
linalg::DenseMatrix Add(const linalg::CsrMatrix& a, const linalg::CsrMatrix& b);
linalg::DenseMatrix Binarize(const linalg::CsrMatrix& m);
std::vector<std::pair<int64_t, int64_t>> UpperTriEquals(
    const linalg::CsrMatrix& m, double target);
linalg::DenseMatrix SelectRows(const linalg::CsrMatrix& m,
                               const std::vector<uint8_t>& keep);
linalg::DenseMatrix GatherRows(const linalg::CsrMatrix& m,
                               const std::vector<int64_t>& rows);
linalg::DenseMatrix SelectColumns(const linalg::CsrMatrix& m,
                                  const std::vector<int64_t>& cols);
linalg::DenseMatrix SliceRowRange(const linalg::CsrMatrix& m, int64_t begin,
                                  int64_t end);
linalg::DenseMatrix Table(const std::vector<int64_t>& rix,
                          const std::vector<int64_t>& cix, int64_t rows,
                          int64_t cols);

}  // namespace ref

/// Structural-invariant validation of a CsrMatrix produced by a kernel:
/// monotone row_ptr covering nnz, per-row sorted and in-range distinct
/// column indices, no stored exact zeros. Returns "" when valid, else a
/// description of the first violation.
std::string CheckCsrInvariants(const linalg::CsrMatrix& m);

/// Max |a - b| comparison of a sparse kernel output against a dense
/// reference; also runs CheckCsrInvariants on the sparse side. Returns ""
/// on agreement (<= tolerance), else a mismatch description including the
/// first differing coordinate.
std::string CompareToDense(const linalg::CsrMatrix& actual,
                           const linalg::DenseMatrix& expected,
                           double tolerance, const std::string& label);

/// Element-wise vector comparison; "" on agreement.
std::string CompareVectors(const std::vector<double>& actual,
                           const std::vector<double>& expected,
                           double tolerance, const std::string& label);

/// Draws a random CSR matrix: random shape within [1, max_rows] x
/// [1, max_cols], random density, and values biased toward small integers
/// (including negatives) so equality-based kernels (FilterEquals,
/// UpperTriEquals) and cancellation in Add are exercised.
linalg::CsrMatrix RandomCsr(Rng& rng, int64_t max_rows, int64_t max_cols);

/// Same value distribution with an exact shape (for kernels with shape
/// constraints: Multiply, MultiplyABt, Add, Rbind).
linalg::CsrMatrix RandomCsrShaped(Rng& rng, int64_t rows, int64_t cols);

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTING_REFERENCE_KERNELS_H_
