#ifndef SLICELINE_DATA_ONEHOT_H_
#define SLICELINE_DATA_ONEHOT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/int_matrix.h"
#include "linalg/csr_matrix.h"

namespace sliceline::data {

/// Feature offsets of the one-hot encoding (Algorithm 1 lines 2-4):
/// feature j occupies one-hot columns [fb[j], fe[j]) (0-based, exclusive
/// end), with fe[j] - fb[j] == fdom[j].
struct FeatureOffsets {
  std::vector<int32_t> fdom;  ///< per-feature domain (colMaxs(X0))
  std::vector<int64_t> fb;    ///< begin column per feature
  std::vector<int64_t> fe;    ///< end column (exclusive) per feature
  int64_t total = 0;          ///< l = sum(fdom)

  int num_features() const { return static_cast<int>(fdom.size()); }

  /// Feature owning one-hot column `col` (binary search over fb).
  int FeatureOfColumn(int64_t col) const;

  /// 1-based code represented by one-hot column `col`.
  int32_t CodeOfColumn(int64_t col) const;

  /// One-hot column of (feature, 1-based code).
  int64_t ColumnOf(int feature, int32_t code) const;
};

/// Lays out the one-hot columns of explicit per-feature domains. Frozen
/// encoder domains and shipped shard domains use this directly: appended or
/// sharded rows may not exercise every code, so the layout must come from
/// the dictionary, not from the data seen so far.
FeatureOffsets OffsetsFromDomains(const std::vector<int32_t>& domains);

/// Computes domains and offsets from the integer-encoded matrix:
/// OffsetsFromDomains(x0.ColMaxs()).
FeatureOffsets ComputeOffsets(const IntMatrix& x0);

/// ComputeOffsets for codes from outside: InvalidArgument (CodeBelowOne of
/// the first such cell, in row-major order) when a code is below 1.
StatusOr<FeatureOffsets> CheckedOffsets(const IntMatrix& x0);

/// The error every engine returns for code `code` < 1 at (row, feature).
Status CodeBelowOne(int64_t row, int64_t feature, int32_t code);

/// One-hot encodes X0 into the n x l 0/1 CSR matrix X. Direct CSR
/// construction; exactly equivalent to the paper's
/// table(rix, X0 + fb) contingency-table formulation (each row has one
/// entry per feature, and fb is increasing, so rows come out sorted).
linalg::CsrMatrix OneHotEncode(const IntMatrix& x0,
                               const FeatureOffsets& offsets);

/// The literal table(rix, cix) formulation from Algorithm 1 lines 1-5, kept
/// as a reference implementation (tests assert it matches OneHotEncode).
linalg::CsrMatrix OneHotEncodeViaTable(const IntMatrix& x0,
                                       const FeatureOffsets& offsets);

}  // namespace sliceline::data

#endif  // SLICELINE_DATA_ONEHOT_H_
