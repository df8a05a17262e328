// Differential fuzzing of every sparse CSR kernel in linalg/kernels.h
// against the slow dense references in testing/reference_kernels.h.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/column_store.h"
#include "linalg/kernels.h"
#include "testing/checks.h"
#include "testing/reference_kernels.h"

namespace sliceline::testing {
namespace {

using linalg::CsrMatrix;
using linalg::DenseMatrix;

constexpr double kKernelTolerance = 1e-9;

/// The injected kernel defect: ColSums that drops the first stored entry of
/// every non-empty row.
std::vector<double> BuggyColSums(const CsrMatrix& m) {
  std::vector<double> out(static_cast<size_t>(m.cols()), 0.0);
  const auto& row_ptr = m.row_ptr();
  const auto& col_idx = m.col_idx();
  const auto& values = m.values();
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = row_ptr[r] + 1; k < row_ptr[r + 1]; ++k) {
      out[col_idx[k]] += values[k];
    }
  }
  return out;
}

std::vector<double> RandomVector(Rng& rng, int64_t size) {
  std::vector<double> v(static_cast<size_t>(size));
  for (double& x : v) {
    x = rng.NextBool(0.2) ? 0.0
                          : static_cast<double>(rng.NextInt(-3, 3)) +
                                (rng.NextBool(0.3) ? rng.NextDouble() : 0.0);
  }
  return v;
}

/// One independent round: a fresh matrix draw through every kernel.
std::string RunRound(Rng& rng, InjectedBug inject) {
  const CsrMatrix a = RandomCsr(rng, 24, 16);

  // --- Reductions ---------------------------------------------------------
  {
    const std::vector<double> got = inject == InjectedBug::kKernel
                                        ? BuggyColSums(a)
                                        : linalg::ColSums(a);
    std::string diff =
        CompareVectors(got, ref::ColSums(a), kKernelTolerance, "ColSums");
    if (!diff.empty()) return diff;
  }
  {
    // Magnitudes 2^-60..2^60 apart, so a float sum would depend on the
    // order of its adds; the exact sums must match bit for bit.
    std::vector<double> values(a.values());
    data::ErrorGrid grid;
    for (double& v : values) {
      v = std::ldexp(std::abs(v), static_cast<int>(rng.NextInt(-60, 60)));
      grid.Add(v);
    }
    const CsrMatrix e(a.rows(), a.cols(), a.row_ptr(), a.col_idx(),
                      std::move(values));
    std::string diff = CompareVectors(linalg::ExactColSums(e, grid.layout()),
                                      ref::ExactColSums(e), 0.0,
                                      "ExactColSums");
    if (!diff.empty()) return diff;
  }
  if (std::string diff = CompareVectors(linalg::ColMaxs(a), ref::ColMaxs(a),
                                        kKernelTolerance, "ColMaxs");
      !diff.empty()) {
    return diff;
  }
  {
    const std::vector<double> v = RandomVector(rng, a.rows());
    const double expected = std::accumulate(v.begin(), v.end(), 0.0);
    if (std::abs(linalg::Sum(v) - expected) > kKernelTolerance) {
      return "Sum: mismatch against sequential accumulation";
    }
  }

  // --- Matrix-vector products --------------------------------------------
  {
    const std::vector<double> x = RandomVector(rng, a.cols());
    std::string diff = CompareVectors(linalg::MatVec(a, x), ref::MatVec(a, x),
                                      kKernelTolerance, "MatVec");
    if (!diff.empty()) return diff;
  }
  {
    const std::vector<double> x = RandomVector(rng, a.rows());
    std::string diff =
        CompareVectors(linalg::TransposeMatVec(a, x), ref::TransposeMatVec(a, x),
                       kKernelTolerance, "TransposeMatVec");
    if (!diff.empty()) return diff;
  }

  // --- Matrix-matrix products --------------------------------------------
  if (std::string diff = CompareToDense(linalg::Transpose(a), ref::Transpose(a),
                                        kKernelTolerance, "Transpose");
      !diff.empty()) {
    return diff;
  }
  {
    const CsrMatrix b = RandomCsrShaped(rng, a.cols(), rng.NextInt(1, 12));
    std::string diff = CompareToDense(linalg::Multiply(a, b),
                                      ref::Multiply(a, b), kKernelTolerance,
                                      "Multiply");
    if (!diff.empty()) return diff;
  }
  {
    const CsrMatrix b = RandomCsrShaped(rng, rng.NextInt(1, 12), a.cols());
    std::string diff = CompareToDense(linalg::MultiplyABt(a, b),
                                      ref::MultiplyABt(a, b), kKernelTolerance,
                                      "MultiplyABt");
    if (!diff.empty()) return diff;
  }

  // --- Element-wise / structural -----------------------------------------
  {
    // Non-zero targets only (the kernel rejects 0: implicit zeros would
    // match). Small integers dominate the value distribution, so hits occur.
    static constexpr double kTargets[] = {1.0, -1.0, 2.0, -3.0};
    const double target = kTargets[rng.NextUint64(4)];
    std::string diff =
        CompareToDense(linalg::FilterEquals(a, target),
                       ref::FilterEquals(a, target), kKernelTolerance,
                       "FilterEquals");
    if (!diff.empty()) return diff;

    const auto got = linalg::UpperTriEquals(a, target);
    const auto want = ref::UpperTriEquals(a, target);
    if (got != want) {
      std::ostringstream os;
      os << "UpperTriEquals: " << got.size() << " hits vs " << want.size()
         << " in the reference (target " << target << ")";
      return os.str();
    }
  }
  {
    // Zero scales exercise the entry-dropping path.
    const std::vector<double> scale = RandomVector(rng, a.rows());
    std::string diff = CompareToDense(linalg::ScaleRows(a, scale),
                                      ref::ScaleRows(a, scale),
                                      kKernelTolerance, "ScaleRows");
    if (!diff.empty()) return diff;
  }
  {
    const CsrMatrix b = RandomCsrShaped(rng, a.rows(), a.cols());
    std::string diff = CompareToDense(linalg::Add(a, b), ref::Add(a, b),
                                      kKernelTolerance, "Add");
    if (!diff.empty()) return diff;
  }
  if (std::string diff = CompareToDense(linalg::Binarize(a), ref::Binarize(a),
                                        kKernelTolerance, "Binarize");
      !diff.empty()) {
    return diff;
  }

  // --- Selection / reshaping ---------------------------------------------
  {
    std::vector<uint8_t> keep(static_cast<size_t>(a.rows()));
    for (auto& k : keep) k = rng.NextBool(0.6) ? 1 : 0;
    std::string diff = CompareToDense(linalg::SelectRows(a, keep),
                                      ref::SelectRows(a, keep),
                                      kKernelTolerance, "SelectRows");
    if (!diff.empty()) return diff;
  }
  {
    const int64_t count = rng.NextInt(0, 2 * a.rows());
    std::vector<int64_t> rows(static_cast<size_t>(count));
    for (auto& r : rows) r = rng.NextInt(0, a.rows() - 1);  // duplicates OK
    std::string diff = CompareToDense(linalg::GatherRows(a, rows),
                                      ref::GatherRows(a, rows),
                                      kKernelTolerance, "GatherRows");
    if (!diff.empty()) return diff;
  }
  {
    std::vector<int64_t> cols;
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (rng.NextBool(0.5)) cols.push_back(c);
    }
    std::string diff = CompareToDense(linalg::SelectColumns(a, cols),
                                      ref::SelectColumns(a, cols),
                                      kKernelTolerance, "SelectColumns");
    if (!diff.empty()) return diff;
  }
  {
    const int64_t begin = rng.NextInt(0, a.rows());
    const int64_t end = rng.NextInt(begin, a.rows());
    std::string diff = CompareToDense(linalg::SliceRowRange(a, begin, end),
                                      ref::SliceRowRange(a, begin, end),
                                      kKernelTolerance, "SliceRowRange");
    if (!diff.empty()) return diff;
  }

  // --- Construction and ordering -----------------------------------------
  {
    const int64_t rows = rng.NextInt(1, 10);
    const int64_t cols = rng.NextInt(1, 10);
    const int64_t entries = rng.NextInt(0, 30);
    std::vector<int64_t> rix(static_cast<size_t>(entries));
    std::vector<int64_t> cix(static_cast<size_t>(entries));
    std::vector<double> weights(static_cast<size_t>(entries));
    for (int64_t i = 0; i < entries; ++i) {
      rix[i] = rng.NextInt(0, rows - 1);  // duplicates sum
      cix[i] = rng.NextInt(0, cols - 1);
      weights[i] = static_cast<double>(rng.NextInt(-2, 3));
    }
    std::string diff = CompareToDense(linalg::Table(rix, cix, rows, cols),
                                      ref::Table(rix, cix, rows, cols),
                                      kKernelTolerance, "Table");
    if (!diff.empty()) return diff;
    // Weighted overload: the expected table is accumulated inline (weights
    // at duplicate cells sum and can cancel to an implicit zero).
    DenseMatrix expected(rows, cols, 0.0);
    for (int64_t i = 0; i < entries; ++i) {
      expected.At(rix[i], cix[i]) += weights[i];
    }
    diff = CompareToDense(linalg::Table(rix, cix, weights, rows, cols),
                          expected, kKernelTolerance, "Table(weighted)");
    if (!diff.empty()) return diff;
  }
  return "";
}

}  // namespace

std::string CheckKernelDifferential(uint64_t seed, int rounds,
                                    InjectedBug inject) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::string diff = RunRound(rng, inject);
    if (!diff.empty()) {
      std::ostringstream os;
      os << "[kernel seed=" << seed << " round=" << round << "] " << diff;
      return os.str();
    }
  }
  return "";
}

}  // namespace sliceline::testing
