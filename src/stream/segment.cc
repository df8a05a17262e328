#include "stream/segment.h"

#include <cmath>
#include <utility>

#include "common/hashing.h"

namespace sliceline::stream {

uint64_t ChainFingerprint(uint64_t parent, const data::IntMatrix& delta,
                          const std::vector<double>& errors) {
  Fnv1a h;
  h.Add64(parent);
  h.Add64(static_cast<uint64_t>(delta.rows()));
  h.Add64(static_cast<uint64_t>(delta.cols()));
  if (!delta.data().empty()) {
    h.AddBytes(delta.data().data(),
               delta.data().size() * sizeof(delta.data()[0]));
  }
  for (double e : errors) h.AddDouble(e);
  return h.hash();
}

uint64_t BaseFingerprint(const data::IntMatrix& x0,
                         const std::vector<double>& errors) {
  return ChainFingerprint(0, x0, errors);
}

namespace {

/// Rejects rows that do not fit a store of `cols` features laid out by
/// `offsets`: wrong shape, codes outside the frozen domains, or non-finite
/// or negative errors.
Status ValidateRows(const data::FeatureOffsets& offsets, int64_t cols,
                    const data::IntMatrix& delta,
                    const std::vector<double>& errors) {
  if (delta.rows() < 1) {
    return Status::InvalidArgument("append must carry at least one row");
  }
  if (delta.cols() != cols) {
    return Status::InvalidArgument("append column count mismatch");
  }
  if (errors.size() != static_cast<size_t>(delta.rows())) {
    return Status::InvalidArgument("append errors size mismatch");
  }
  for (double e : errors) {
    if (!std::isfinite(e) || e < 0.0) {
      return Status::InvalidArgument(
          "errors must be non-negative finite values");
    }
  }
  for (int64_t r = 0; r < delta.rows(); ++r) {
    const int32_t* row = delta.row(r);
    for (int64_t j = 0; j < delta.cols(); ++j) {
      if (row[j] < 1 || row[j] > offsets.fdom[static_cast<size_t>(j)]) {
        return Status::InvalidArgument(
            "code " + std::to_string(row[j]) + " outside frozen domain [1, " +
            std::to_string(offsets.fdom[static_cast<size_t>(j)]) +
            "] for feature " + std::to_string(j));
      }
    }
  }
  return Status::OK();
}

}  // namespace

SegmentStore::SegmentStore(data::IntMatrix x0, std::vector<double> errors,
                           data::FeatureOffsets offsets)
    : x0_(std::move(x0)),
      errors_(std::move(errors)),
      offsets_(std::move(offsets)),
      columns_(x0_, offsets_, errors_),
      base_rows_(x0_.rows()) {
  boundary_counts_[0].assign(static_cast<size_t>(offsets_.total), 0);
}

StatusOr<std::unique_ptr<SegmentStore>> SegmentStore::Create(
    data::IntMatrix base_x0, std::vector<double> base_errors,
    std::vector<int32_t> domains) {
  if (base_x0.rows() < 1) {
    return Status::InvalidArgument("segment store needs a non-empty base");
  }
  if (domains.empty()) {
    domains = base_x0.ColMaxs();
  } else if (domains.size() != static_cast<size_t>(base_x0.cols())) {
    return Status::InvalidArgument("domains size does not match columns");
  }
  data::FeatureOffsets offsets = data::OffsetsFromDomains(domains);
  SLICELINE_RETURN_NOT_OK(
      ValidateRows(offsets, base_x0.cols(), base_x0, base_errors));
  const uint64_t fingerprint = BaseFingerprint(base_x0, base_errors);
  std::unique_ptr<SegmentStore> store(new SegmentStore(
      std::move(base_x0), std::move(base_errors), std::move(offsets)));
  store->fingerprint_ = fingerprint;
  return store;
}

Status SegmentStore::Append(const data::IntMatrix& delta_x0,
                            const std::vector<double>& delta_errors,
                            double ingest_seconds) {
  SLICELINE_RETURN_NOT_OK(
      ValidateRows(offsets_, x0_.cols(), delta_x0, delta_errors));
  const int64_t row_begin = x0_.rows();
  // Snapshot cumulative counts at the boundary *before* ingesting, so the
  // untouched-column fast path can ask "did any rows in [P, n) hit column
  // c" by differencing against the current counts.
  boundary_counts_[row_begin] = columns_.basic_sizes();
  x0_.AppendRows(delta_x0);
  errors_.insert(errors_.end(), delta_errors.begin(), delta_errors.end());
  // Continues every statistic chain and built bitmap over the new rows:
  // the exact continuation a from-scratch build would run.
  columns_.Extend();
  fingerprint_ = ChainFingerprint(fingerprint_, delta_x0, delta_errors);
  DeltaSegment segment;
  segment.row_begin = row_begin;
  segment.row_end = x0_.rows();
  segment.fingerprint = fingerprint_;
  segment.ingest_seconds = ingest_seconds;
  segments_.push_back(segment);
  return Status::OK();
}

void SegmentStore::Compact() {
  if (segments_.empty()) return;
  base_rows_ = x0_.rows();
  segments_.clear();
  boundary_counts_.clear();
  boundary_counts_[0].assign(static_cast<size_t>(offsets_.total), 0);
  ++compactions_;
}

bool SegmentStore::MaybeCompact(double ratio) {
  if (segments_.empty() || ratio <= 0.0) return false;
  const int64_t delta_rows = x0_.rows() - base_rows_;
  if (static_cast<double>(delta_rows) <=
      ratio * static_cast<double>(base_rows_)) {
    return false;
  }
  Compact();
  return true;
}

const std::vector<int64_t>* SegmentStore::BoundaryCounts(int64_t row) const {
  auto it = boundary_counts_.find(row);
  if (it == boundary_counts_.end()) return nullptr;
  return &it->second;
}

}  // namespace sliceline::stream
