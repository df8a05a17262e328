#include "linalg/matrix_io.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/checked_math.h"
#include "common/string_util.h"

namespace sliceline::linalg {

std::string ToMatrixMarketString(const CsrMatrix& matrix) {
  std::ostringstream os;
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << "% written by sliceline\n";
  os << matrix.rows() << " " << matrix.cols() << " " << matrix.nnz() << "\n";
  for (int64_t r = 0; r < matrix.rows(); ++r) {
    const int64_t* cols = matrix.RowCols(r);
    const double* vals = matrix.RowVals(r);
    for (int64_t k = 0; k < matrix.RowNnz(r); ++k) {
      os << (r + 1) << " " << (cols[k] + 1) << " " << vals[k] << "\n";
    }
  }
  return os.str();
}

Status WriteMatrixMarket(const CsrMatrix& matrix, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write '" + path + "'");
  out << ToMatrixMarketString(matrix);
  if (!out) return Status::IoError("error while writing '" + path + "'");
  return Status::OK();
}

StatusOr<CsrMatrix> ParseMatrixMarket(const std::string& content,
                                      int64_t max_rows) {
  std::istringstream in(content);
  std::string line;
  // Header.
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty MatrixMarket input");
  }
  if (!StartsWith(line, "%%MatrixMarket")) {
    return Status::InvalidArgument("missing MatrixMarket banner");
  }
  std::string lowered = line;
  for (char& c : lowered) c = static_cast<char>(std::tolower(c));
  if (lowered.find("coordinate") == std::string::npos) {
    return Status::NotImplemented("only coordinate format is supported");
  }
  if (lowered.find("complex") != std::string::npos ||
      lowered.find("pattern") != std::string::npos) {
    return Status::NotImplemented("only real/integer fields are supported");
  }
  const bool symmetric = lowered.find("symmetric") != std::string::npos;

  // Skip comments; read the size line.
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (!trimmed.empty() && trimmed[0] != '%') break;
  }
  std::istringstream size_line{line};
  int64_t rows = -1;
  int64_t cols = -1;
  int64_t nnz = -1;
  size_line >> rows >> cols >> nnz;
  if (rows < 0 || cols < 0 || nnz < 0) {
    return Status::InvalidArgument("malformed size line: '" + line + "'");
  }
  if (rows > max_rows) {
    return Status::InvalidArgument("MatrixMarket header declares " +
                                   std::to_string(rows) +
                                   " rows, more than the " +
                                   std::to_string(max_rows) + " expected");
  }
  // File-controlled sizes: reject products that would wrap before any
  // reservation happens. For symmetric inputs the mirrored entries can at
  // most double the count, so only the byte product is checked on 2*nnz
  // (the dense-capacity bound applies to the declared nnz alone).
  SLICELINE_RETURN_NOT_OK(
      CheckedElementCount(rows, cols, sizeof(double), nullptr));
  SLICELINE_RETURN_NOT_OK(CheckedNnzReservation(
      nnz, rows, cols, sizeof(int64_t) + sizeof(double)));
  int64_t mirrored_bytes;
  if (symmetric &&
      !CheckedMulInt64(nnz, 2 * static_cast<int64_t>(sizeof(int64_t) +
                                                     sizeof(double)),
                       &mirrored_bytes)) {
    return Status::OutOfRange("symmetric nnz overflows: " +
                              std::to_string(nnz));
  }

  CooBuilder builder(rows, cols);
  int64_t seen = 0;
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '%') continue;
    std::istringstream entry{std::string(trimmed)};
    int64_t r = 0;
    int64_t c = 0;
    double v = 1.0;
    entry >> r >> c;
    if (!(entry >> v)) v = 1.0;
    if (r < 1 || r > rows || c < 1 || c > cols) {
      return Status::OutOfRange("coordinate out of bounds: '" +
                                std::string(trimmed) + "'");
    }
    builder.Add(r - 1, c - 1, v);
    if (symmetric && r != c) builder.Add(c - 1, r - 1, v);
    ++seen;
  }
  if (seen != nnz) {
    return Status::InvalidArgument(
        "expected " + std::to_string(nnz) + " entries, found " +
        std::to_string(seen));
  }
  return builder.Build();
}

StatusOr<CsrMatrix> ReadMatrixMarket(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseMatrixMarket(buf.str());
}

}  // namespace sliceline::linalg
