#include "data/column_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/bitmap.h"

namespace sliceline::data {

ColumnStore::ColumnStore(const IntMatrix& x0, const FeatureOffsets& offsets,
                         const std::vector<double>& errors)
    : x0_(&x0), offsets_(&offsets), errors_(&errors) {
  const size_t l = static_cast<size_t>(offsets.total);
  basic_sizes_.assign(l, 0);
  basic_error_sums_.assign(l, 0.0);
  basic_max_errors_.assign(l, 0.0);
  columns_.resize(l);
  built_.assign(l, 0);
  AccumulateStats(0, x0.rows());
}

void ColumnStore::AccumulateStats(int64_t begin, int64_t end) {
  const IntMatrix& x0 = *x0_;
  const FeatureOffsets& offsets = *offsets_;
  const std::vector<double>& errors = *errors_;
  const int64_t m = x0.cols();
  SLICELINE_CHECK_EQ(static_cast<int64_t>(errors.size()), x0.rows());
  for (int64_t i = begin; i < end; ++i) {
    const int32_t* row = x0.row(i);
    const double e = errors[static_cast<size_t>(i)];
    SLICELINE_CHECK_GE(e, 0.0);
    total_error_ += e;
    for (int64_t j = 0; j < m; ++j) {
      SLICELINE_CHECK(row[j] >= 1 && row[j] <= offsets.fdom[j])
          << "X0 code out of domain at (" << i << "," << j << ")";
      const int64_t c = offsets.fb[j] + row[j] - 1;
      ++basic_sizes_[c];
      basic_error_sums_[c] += e;
      if (e > basic_max_errors_[c]) basic_max_errors_[c] = e;
    }
  }
  n_ = end;
  words_ = linalg::BitmapWords(n_);
}

void ColumnStore::SetBits(int64_t begin, int64_t end,
                          uint64_t* const* dst) const {
  // Per-feature views of dst indexed by code - 1, for the features that own
  // at least one destination column; the others are never read.
  const FeatureOffsets& offsets = *offsets_;
  std::vector<int64_t> features;
  std::vector<uint64_t* const*> by_code;
  for (int j = 0; j < offsets.num_features(); ++j) {
    if (std::any_of(dst + offsets.fb[j], dst + offsets.fe[j],
                    [](const uint64_t* words) { return words != nullptr; })) {
      features.push_back(j);
      by_code.push_back(dst + offsets.fb[j]);
    }
  }
  const IntMatrix& x0 = *x0_;
  for (int64_t i = begin; i < end; ++i) {
    const int32_t* row = x0.row(i);
    const uint64_t bit = uint64_t{1} << (i & 63);
    for (size_t f = 0; f < features.size(); ++f) {
      uint64_t* words = by_code[f][row[features[f]] - 1];
      if (words != nullptr) words[i >> 6] |= bit;
    }
  }
}

void ColumnStore::Materialize(const int64_t* cols, int64_t count,
                              bool parallel) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t*> dst;
  for (int64_t k = 0; k < count; ++k) {
    const size_t c = static_cast<size_t>(cols[k]);
    if (built_[c]) continue;
    if (dst.empty()) dst.assign(built_.size(), nullptr);
    if (dst[c] != nullptr) continue;
    columns_[c].assign(static_cast<size_t>(words_), 0);
    dst[c] = columns_[c].data();
  }
  if (dst.empty()) return;
  // Whole 64-row words per range: ranges write disjoint words.
  const int64_t row_words = (n_ + 63) / 64;
  auto fill = [&](size_t word_begin, size_t word_end) {
    SetBits(static_cast<int64_t>(word_begin) * 64,
            std::min<int64_t>(static_cast<int64_t>(word_end) * 64, n_),
            dst.data());
  };
  if (parallel) {
    GlobalThreadPool().ParallelForRange(static_cast<size_t>(row_words), fill);
  } else {
    fill(0, static_cast<size_t>(row_words));
  }
  for (size_t c = 0; c < dst.size(); ++c) {
    if (dst[c] != nullptr) built_[c] = 1;
  }
}

int64_t ColumnStore::built() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::count(built_.begin(), built_.end(), uint8_t{1});
}

int64_t ColumnStore::memory_bytes() const {
  return built() * words_ * static_cast<int64_t>(sizeof(uint64_t));
}

void ColumnStore::Extend() {
  const int64_t begin = n_;
  AccumulateStats(begin, x0_->rows());
  std::vector<uint64_t*> dst(built_.size(), nullptr);
  for (size_t c = 0; c < built_.size(); ++c) {
    if (!built_[c]) continue;
    // Padded word counts only grow and prefix words keep their values, so
    // appended rows only ever set bits at or past the old end.
    columns_[c].resize(static_cast<size_t>(words_), 0);
    dst[c] = columns_[c].data();
  }
  SetBits(begin, n_, dst.data());
}

}  // namespace sliceline::data
