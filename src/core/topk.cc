#include "core/topk.h"

#include <algorithm>

#include "common/logging.h"

namespace sliceline::core {

TopK::TopK(int k, int64_t min_support) : k_(k), min_support_(min_support) {
  SLICELINE_CHECK_GE(k, 1);
  SLICELINE_CHECK_GE(min_support, 1);
}

void TopK::Offer(Slice slice) {
  if (slice.stats.score <= 0.0) return;
  if (slice.stats.size < min_support_) return;
  if (Full() && slice.stats.score <= slices_.back().stats.score) return;
  // A slice is identified by its predicate set; a re-offered slice (the
  // candidate-deduplication ablation evaluates duplicates) must not occupy
  // a second top-K slot.
  for (const Slice& held : slices_) {
    if (held.predicates == slice.predicates) return;
  }
  auto it = std::upper_bound(
      slices_.begin(), slices_.end(), slice,
      [](const Slice& a, const Slice& b) {
        return a.stats.score > b.stats.score;
      });
  slices_.insert(it, std::move(slice));
  if (static_cast<int>(slices_.size()) > k_) slices_.pop_back();
}

double TopK::Threshold() const {
  return Full() ? slices_.back().stats.score : 0.0;
}

void TopK::Restore(std::vector<Slice> slices) {
  SLICELINE_CHECK_LE(static_cast<int>(slices.size()), k_);
  for (size_t i = 1; i < slices.size(); ++i) {
    SLICELINE_CHECK_GE(slices[i - 1].stats.score, slices[i].stats.score);
  }
  slices_ = std::move(slices);
}

}  // namespace sliceline::core
