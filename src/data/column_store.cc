#include "data/column_store.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/bitmap.h"

namespace sliceline::data {

namespace {

/// Codes below which the level-1 pass stays on the calling thread: small
/// inputs finish before a pool round trip would.
constexpr int64_t kParallelStatsCells = int64_t{1} << 18;

}  // namespace

void ErrorGrid::Add(double e) {
  if (e == 0.0) return;
  // e == odd * 2^shift for an odd integer `odd`.
  const uint64_t bits = std::bit_cast<uint64_t>(e);
  const int biased = static_cast<int>(bits >> 52);
  uint64_t odd = bits & ((uint64_t{1} << 52) - 1);
  int shift = -1074;
  if (biased != 0) {
    odd |= uint64_t{1} << 52;
    shift = biased - 1075;
  }
  const int top = shift + std::bit_width(odd);
  shift += std::countr_zero(odd);
  if (!any_) {
    any_ = true;
    low_ = shift;
    top_ = top;
  }
  low_ = std::min(low_, shift);
  top_ = std::max(top_, top);
}

ColumnStore::ColumnStore(const IntMatrix& x0, const FeatureOffsets& offsets,
                         const std::vector<double>& errors)
    : x0_(&x0), offsets_(&offsets), errors_(&errors) {
  const size_t l = static_cast<size_t>(offsets.total);
  basic_sizes_.assign(l, 0);
  basic_error_sums_.assign(l, 0.0);
  basic_max_errors_.assign(l, 0.0);
  exact_basic_error_sums_.assign(l, linalg::ExactSum());
  columns_.resize(l);
  built_.assign(l, 0);
  AccumulateStats(0, x0.rows());
}

void ColumnStore::AccumulateStats(int64_t begin, int64_t end) {
  const std::vector<double>& errors = *errors_;
  const int64_t m = x0_->cols();
  SLICELINE_CHECK_EQ(static_cast<int64_t>(errors.size()), x0_->rows());
  // One serial pass over the errors: the grid fixes the sum layout the
  // column pass accumulates in.
  for (int64_t i = begin; i < end; ++i) {
    const double e = errors[static_cast<size_t>(i)];
    SLICELINE_CHECK(e >= 0.0 && std::isfinite(e))
        << "error " << e << " at row " << i;
    grid_.Add(e);
  }
  n_ = end;
  words_ = linalg::BitmapWords(n_);
  // Feature groups own disjoint columns; every sum is exact, so how the
  // features are split does not matter.
  const int64_t groups =
      (end - begin) * m >= kParallelStatsCells
          ? std::min<int64_t>(
                m, static_cast<int64_t>(GlobalThreadPool().num_threads()))
          : 1;
  if (groups > 1) {
    auto group = [&](size_t g) {
      const int64_t first = static_cast<int64_t>(g) * m / groups;
      const int64_t last = static_cast<int64_t>(g + 1) * m / groups;
      AccumulateColumns(begin, end, first, last);
    };
    GlobalThreadPool().ParallelFor(static_cast<size_t>(groups), group);
  } else {
    AccumulateColumns(begin, end, 0, m);
  }
  // Every row has one code per feature, so feature 0's columns partition the
  // rows and their exact sums add up to the total.
  if (m > 0) {
    exact_total_error_ = linalg::ExactSum();
    for (int64_t c = offsets_->fb[0]; c < offsets_->fe[0]; ++c) {
      exact_total_error_.Add(exact_basic_error_sums_[static_cast<size_t>(c)]);
    }
  } else {
    for (int64_t i = begin; i < end; ++i) {
      exact_total_error_.Add(errors[static_cast<size_t>(i)]);
    }
  }
  total_error_ = exact_total_error_.ToDouble();
  has_planes_ = has_planes_ && grid_.planes() <= kMaxErrorPlanes;
  if (has_planes_) {
    FillPlanes(begin, end);
  } else {
    planes_.clear();
    plane_words_.clear();
  }
}

void ColumnStore::AccumulateColumns(int64_t begin, int64_t end,
                                    int64_t feature_begin,
                                    int64_t feature_end) {
  if (feature_begin == feature_end) return;
  const IntMatrix& x0 = *x0_;
  const FeatureOffsets& offsets = *offsets_;
  const std::vector<double>& errors = *errors_;
  // Private accumulators for the group's columns: a small feature's columns
  // share cache lines with its neighbour's, which another group would
  // write on every row.
  const int64_t col_begin = offsets.fb[feature_begin];
  const int64_t col_end = offsets.fe[feature_end - 1];
  const linalg::SumLayout layout = grid_.layout();
  const size_t cols = static_cast<size_t>(col_end - col_begin);
  const size_t stride = static_cast<size_t>(layout.lanes);
  std::vector<int64_t> sizes(cols, 0);
  std::vector<uint64_t> maxes(cols, 0);  // bit patterns
  // Runs `add(c, split(e))` for every row's error e and each of its columns
  // c (indexed from col_begin), counting sizes and maxima alongside.
  auto scan = [&](auto split, auto add) {
    for (int64_t i = begin; i < end; ++i) {
      const int32_t* row = x0.row(i);
      const double e = errors[static_cast<size_t>(i)];
      const auto part = split(e);
      for (int64_t j = feature_begin; j < feature_end; ++j) {
        SLICELINE_CHECK(row[j] >= 1 && row[j] <= offsets.fdom[j])
            << "X0 code out of domain at (" << i << "," << j << ")";
        const size_t c =
            static_cast<size_t>(offsets.fb[j] + row[j] - 1 - col_begin);
        ++sizes[c];
        add(c, part);
        maxes[c] = std::max(maxes[c], std::bit_cast<uint64_t>(e));
      }
    }
  };
  // Narrow layouts sum each column's k = e / 2^low in one 128-bit integer;
  // wide layouts sum in accumulator lanes.
  std::vector<uint64_t> lanes(cols * stride, 0);
  if (!layout.narrow) {
    scan([&](double e) {
           return linalg::SplitForLanes(std::bit_cast<uint64_t>(e),
                                        layout.anchor);
         },
         [&](size_t c, const linalg::LaneIncrement& add) {
           linalg::AddToLanes(add, lanes.data() + c * stride);
         });
  } else {
    std::vector<unsigned __int128> units(cols, 0);
    scan([&](double e) { return linalg::NarrowUnits(e, layout.scale); },
         [&](size_t c, unsigned __int128 k) { units[c] += k; });
    for (size_t c = 0; c < cols; ++c) {
      linalg::AddUnitsToLanes(units[c], layout.low - layout.anchor,
                              lanes.data() + c * stride);
    }
  }
  for (size_t c = 0; c < cols; ++c) {
    const size_t col = static_cast<size_t>(col_begin) + c;
    basic_sizes_[col] += sizes[c];
    exact_basic_error_sums_[col].AddLanes(lanes.data() + c * stride, layout);
    basic_error_sums_[col] = exact_basic_error_sums_[col].ToDouble();
    basic_max_errors_[col] =
        std::max(basic_max_errors_[col], std::bit_cast<double>(maxes[c]));
  }
}

void ColumnStore::FillPlanes(int64_t begin, int64_t end) {
  const int low = grid_.low_exponent();
  if (!planes_.empty() && planes_low_ > low) {
    // The new rows refined the unit: k of every earlier row doubled once per
    // step, which moves each plane up as many places.
    planes_.insert(planes_.begin(), static_cast<size_t>(planes_low_ - low),
                   std::vector<uint64_t>());
  }
  planes_low_ = low;
  planes_.resize(static_cast<size_t>(grid_.planes()));
  plane_words_.clear();
  for (std::vector<uint64_t>& plane : planes_) {
    plane.resize(static_cast<size_t>(words_), 0);
    plane_words_.push_back(plane.data());
  }
  const std::vector<double>& errors = *errors_;
  // Exact: e / u is an integer below 2^kMaxErrorPlanes (and 1 / u is a
  // double unless u is subnormal).
  const double inverse_unit = low >= -1022 ? std::ldexp(1.0, -low) : 0.0;
  for (int64_t i = begin; i < end; ++i) {
    const double e = errors[static_cast<size_t>(i)];
    if (e == 0.0) continue;
    uint64_t k = static_cast<uint64_t>(
        inverse_unit != 0.0 ? e * inverse_unit : std::ldexp(e, -low));
    const uint64_t bit = uint64_t{1} << (i & 63);
    for (; k != 0; k &= k - 1) {
      planes_[static_cast<size_t>(std::countr_zero(k))]
             [static_cast<size_t>(i >> 6)] |= bit;
    }
  }
  planes_view_ = {plane_words_.data(), static_cast<int32_t>(planes_.size()),
                  low};
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
