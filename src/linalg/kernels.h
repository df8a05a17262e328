#ifndef SLICELINE_LINALG_KERNELS_H_
#define SLICELINE_LINALG_KERNELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/exact_sum.h"

namespace sliceline::linalg {

// ---------------------------------------------------------------------------
// Reductions (SystemDS colSums / colMaxs).
// ---------------------------------------------------------------------------

/// Per-column sum of stored entries.
std::vector<double> ColSums(const CsrMatrix& m);

/// Per-column exact sum of stored entries, each rounded to the nearest
/// double once (ties to even), so the result does not depend on the order
/// of the rows. Every entry must be a finite, non-negative double inside
/// `layout`'s bits (e.g. the layout of a data::ErrorGrid over the entries).
/// With m = ScaleRows(I, e) this is the slice error sum se = colSums(I ⊙ e)
/// of Section 4.4, bit-identical to the column store's exact sums.
std::vector<double> ExactColSums(const CsrMatrix& m, const SumLayout& layout);

/// Per-column maximum. Implicit zeros participate: a column whose nnz is
/// smaller than rows() has maximum >= 0 (matches SystemDS colMaxs on sparse).
std::vector<double> ColMaxs(const CsrMatrix& m);

/// Sum of all entries of a vector.
double Sum(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Matrix-vector products.
// ---------------------------------------------------------------------------

/// y = m * x.
std::vector<double> MatVec(const CsrMatrix& m, const std::vector<double>& x);

/// y = m^T * x, i.e. the row-vector/matrix product (e^T X)^T used for slice
/// error sums (Equation 4 of the paper).
std::vector<double> TransposeMatVec(const CsrMatrix& m,
                                    const std::vector<double>& x);

// ---------------------------------------------------------------------------
// Matrix-matrix products.
// ---------------------------------------------------------------------------

/// Explicit transpose (counting sort on columns; output rows sorted).
CsrMatrix Transpose(const CsrMatrix& m);

/// Gustavson sparse-sparse product C = a * b.
CsrMatrix Multiply(const CsrMatrix& a, const CsrMatrix& b);

/// C = a * b^T via sorted-list intersections per row pair. This is the shape
/// of both key products in SliceLine: X * S^T (slice evaluation) and S * S^T
/// (pair joining). For binary inputs each output entry is the intersection
/// size of two sparse rows.
CsrMatrix MultiplyABt(const CsrMatrix& a, const CsrMatrix& b);

// ---------------------------------------------------------------------------
// Element-wise / structural ops.
// ---------------------------------------------------------------------------

/// Keeps entries with value == target, replacing them by 1.0 (the "(... == L)"
/// comparison of Equations 6 and 10; implicit zeros compare unequal for any
/// non-zero target).
CsrMatrix FilterEquals(const CsrMatrix& m, double target);

/// diag(scale) * m, i.e. row i multiplied by scale[i]. Entries scaled to zero
/// are dropped.
CsrMatrix ScaleRows(const CsrMatrix& m, const std::vector<double>& scale);

/// Element-wise sum of two equally shaped matrices (entries cancelling to
/// exactly zero are dropped).
CsrMatrix Add(const CsrMatrix& a, const CsrMatrix& b);

/// Replaces every stored non-zero entry by 1.0 (the "!= 0" binarization used
/// when merging slice pairs, P = ((P1 S) + (P2 S)) != 0).
CsrMatrix Binarize(const CsrMatrix& m);

/// Strict upper-triangle entries of m with value == target, as (row, col)
/// pairs (the upper.tri(..., values=TRUE) extraction of Equation 6).
std::vector<std::pair<int64_t, int64_t>> UpperTriEquals(const CsrMatrix& m,
                                                        double target);

// ---------------------------------------------------------------------------
// Selection / reshaping (indexing).
// ---------------------------------------------------------------------------

/// Keeps only rows with keep[r] != 0, preserving order.
CsrMatrix SelectRows(const CsrMatrix& m, const std::vector<uint8_t>& keep);

/// Gathers the given rows in order (duplicates allowed).
CsrMatrix GatherRows(const CsrMatrix& m, const std::vector<int64_t>& rows);

/// Keeps only the given columns (sorted unique input), re-indexing them to
/// 0..k-1 (X <- X[, cI] in Algorithm 1 line 12).
CsrMatrix SelectColumns(const CsrMatrix& m, const std::vector<int64_t>& cols);

/// Contiguous row range [begin, end).
CsrMatrix SliceRowRange(const CsrMatrix& m, int64_t begin, int64_t end);

// ---------------------------------------------------------------------------
// Construction (table).
// ---------------------------------------------------------------------------

/// Contingency table: adds weight[k] (default 1) at (rix[k], cix[k]).
/// Duplicate positions sum, mirroring SystemDS table().
CsrMatrix Table(const std::vector<int64_t>& rix,
                const std::vector<int64_t>& cix, int64_t rows, int64_t cols);
CsrMatrix Table(const std::vector<int64_t>& rix,
                const std::vector<int64_t>& cix,
                const std::vector<double>& weights, int64_t rows,
                int64_t cols);

}  // namespace sliceline::linalg

#endif  // SLICELINE_LINALG_KERNELS_H_
