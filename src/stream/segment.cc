#include "stream/segment.h"

#include <cmath>
#include <utility>

namespace sliceline::stream {

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
      last_row_(static_cast<size_t>(offsets_.total), -1) {
  TrackLastRows(0);
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
  return std::unique_ptr<SegmentStore>(new SegmentStore(
      std::move(base_x0), std::move(base_errors), std::move(offsets)));
}

Status SegmentStore::Append(const data::IntMatrix& delta_x0,
                            const std::vector<double>& delta_errors) {
  SLICELINE_RETURN_NOT_OK(
      ValidateRows(offsets_, x0_.cols(), delta_x0, delta_errors));
  const int64_t row_begin = x0_.rows();
  x0_.AppendRows(delta_x0);
  errors_.insert(errors_.end(), delta_errors.begin(), delta_errors.end());
  // Continues every statistic chain and built bitmap over the new rows:
  // the exact continuation a from-scratch build would run.
  columns_.Extend();
  TrackLastRows(row_begin);
  return Status::OK();
}

void SegmentStore::TrackLastRows(int64_t begin) {
  for (int64_t r = begin; r < x0_.rows(); ++r) {
    const int32_t* row = x0_.row(r);
    for (int64_t j = 0; j < x0_.cols(); ++j) {
      last_row_[static_cast<size_t>(
          offsets_.ColumnOf(static_cast<int>(j), row[j]))] = r;
    }
  }
}

}  // namespace sliceline::stream
