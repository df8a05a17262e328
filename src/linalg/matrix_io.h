#ifndef SLICELINE_LINALG_MATRIX_IO_H_
#define SLICELINE_LINALG_MATRIX_IO_H_

#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"
#include "linalg/csr_matrix.h"

namespace sliceline::linalg {

/// Writes a CSR matrix in MatrixMarket coordinate format
/// ("%%MatrixMarket matrix coordinate real general", 1-based indices).
/// Interoperates with SciPy/Matlab/SystemDS tooling for offline inspection
/// of one-hot matrices and slice matrices.
Status WriteMatrixMarket(const CsrMatrix& matrix, const std::string& path);

/// Reads a MatrixMarket coordinate file into a CSR matrix. Supports the
/// "general" and "symmetric" qualifiers with real or integer fields;
/// duplicate coordinates are summed.
StatusOr<CsrMatrix> ReadMatrixMarket(const std::string& path);

/// String-based variants (testing and embedding convenience). The parser
/// checks the declared row count against `max_rows` before anything is
/// sized by it, and returns InvalidArgument past it: a caller that knows
/// how many rows to expect bounds a hostile header that way.
std::string ToMatrixMarketString(const CsrMatrix& matrix);
StatusOr<CsrMatrix> ParseMatrixMarket(
    const std::string& content,
    int64_t max_rows = std::numeric_limits<int64_t>::max());

}  // namespace sliceline::linalg

#endif  // SLICELINE_LINALG_MATRIX_IO_H_
