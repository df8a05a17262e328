#include "data/column_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/bitmap.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::data {

/// Pass 1 over one range of rows.
struct CodeScan {
  // counts[j][code - 1]: rows of the range whose feature j holds `code`.
  // Grown on demand when the domains are derived; codes outside a fixed
  // domain are not counted.
  std::vector<std::vector<int64_t>> counts;
  ErrorGrid grid;
  int64_t bad_error_row = -1;  // first row with a negative or non-finite error
  int64_t bad_code_row = -1;   // first cell below 1 or past a fixed domain
  int64_t bad_code_feature = 0;
  int32_t bad_code = 0;
};

namespace {

/// Rows [begin, end) of one range of a pass.
struct RowRange {
  int64_t begin;
  int64_t end;
};

/// Splits rows [begin, end) into ranges of whole 64-row words (the first
/// starts at `begin`, which may fall inside a word), at most one per pool
/// thread. Each range reads the codes of `cols` features and keeps `state`
/// private words (accumulators, word buffers) that the pass then merges.
/// Without `parallel`, below kParallelCodeCells codes or above
/// kMaxRangeState words of state there is one range; else no more than
/// give each range kCodesPerStateWord codes per word of its state.
std::vector<RowRange> SplitRows(int64_t begin, int64_t end, int64_t cols,
                                int64_t state, bool parallel) {
  const int64_t first_word = begin >> 6;
  const int64_t words = ((end + 63) >> 6) - first_word;
  const int64_t codes = (end - begin) * cols;
  int64_t count = 1;
  if (parallel && codes >= ColumnStore::kParallelCodeCells &&
      state <= ColumnStore::kMaxRangeState) {
    const int64_t most = std::min<int64_t>(
        words, static_cast<int64_t>(GlobalThreadPool().num_threads()));
    count = std::clamp<int64_t>(
        codes / (ColumnStore::kCodesPerStateWord * std::max<int64_t>(state, 1)),
        1, most);
  }
  std::vector<RowRange> ranges;
  for (int64_t r = 0; r < count; ++r) {
    ranges.push_back(
        {std::max(begin, (first_word + r * words / count) * 64),
         std::min(end, (first_word + (r + 1) * words / count) * 64)});
  }
  return ranges;
}

/// Codes per block of rows that the fill's features read in turn while the
/// block stays in cache.
constexpr int64_t kFillBlockCodes = int64_t{1} << 15;

/// The current 64-row word of some destination bitmaps: rows set bits in
/// words()[slot], and Store writes each slot's word once. The extra last
/// slot, dst.size(), takes the bits no destination wants and is never
/// stored.
class WordBuffer {
 public:
  explicit WordBuffer(const std::vector<uint64_t*>& dst)
      : dst_(dst), words_(dst.size() + 1, 0) {}

  uint64_t* words() { return words_.data(); }

  /// Stores word `w` of every destination and clears the buffer; `merge`
  /// keeps the bits already there (the rows before an Extend).
  void Store(int64_t w, bool merge) {
    for (size_t s = 0; s < dst_.size(); ++s) {
      dst_[s][w] = merge ? dst_[s][w] | words_[s] : words_[s];
      words_[s] = 0;
    }
    words_.back() = 0;
  }

 private:
  const std::vector<uint64_t*>& dst_;
  std::vector<uint64_t> words_;
};

/// Runs row(i, bit) for every row i of `range` (bit = its bit in its word)
/// and store(w, merge) after each 64-row word w; merge is set for a word
/// that holds rows before `first_row`, the first row of the pass.
template <class Row, class Store>
void ForEachWord(RowRange range, int64_t first_row, Row row, Store store) {
  for (int64_t i = range.begin; i < range.end;) {
    const int64_t w = i >> 6;
    const int64_t word_end = std::min(range.end, (w + 1) * 64);
    for (; i < word_end; ++i) row(i, uint64_t{1} << (i & 63));
    store(w, w * 64 < first_row);
  }
}

/// Pass 1 over `range`: counts its codes, checks its codes against the
/// fixed domains (when given) and its errors, and folds the errors into the
/// range's grid.
CodeScan ScanCodes(const IntMatrix& x0, const std::vector<double>& errors,
                   const FeatureOffsets* fixed, RowRange range) {
  const size_t m = static_cast<size_t>(x0.cols());
  CodeScan scan;
  scan.counts.resize(m);
  std::vector<int64_t*> counts(m, nullptr);
  std::vector<uint32_t> sizes(m, 0);
  if (fixed != nullptr) {
    for (size_t j = 0; j < m; ++j) {
      scan.counts[j].assign(static_cast<size_t>(fixed->fdom[j]), 0);
      counts[j] = scan.counts[j].data();
      sizes[j] = static_cast<uint32_t>(fixed->fdom[j]);
    }
  }
  for (int64_t i = range.begin; i < range.end; ++i) {
    const double e = errors[static_cast<size_t>(i)];
    if (e >= 0.0 && std::isfinite(e)) {
      scan.grid.Add(e);
    } else if (scan.bad_error_row < 0) {
      scan.bad_error_row = i;
    }
    const int32_t* row = x0.row(i);
    for (size_t j = 0; j < m; ++j) {
      // A code below 1 wraps past every size.
      const uint32_t index = static_cast<uint32_t>(row[j]) - 1;
      if (index < sizes[j]) {
        ++counts[j][index];
      } else if (row[j] >= 1 && fixed == nullptr) {
        std::vector<int64_t>& grown = scan.counts[j];
        grown.resize(std::min<size_t>(
                         std::max<size_t>(index + 1, 2 * grown.size()),
                         std::numeric_limits<int32_t>::max()),
                     0);
        counts[j] = grown.data();
        sizes[j] = static_cast<uint32_t>(grown.size());
        ++counts[j][index];
      } else if (scan.bad_code_row < 0) {
        scan.bad_code_row = i;
        scan.bad_code_feature = static_cast<int64_t>(j);
        scan.bad_code = row[j];
      }
    }
  }
  return scan;
}

/// Pass 2 over one range: private exact accumulators for every column and,
/// in slot l, the total (a 128-bit count of units for narrow layouts, lanes
/// for wide ones), and the maxima as bit patterns.
struct RangeSums {
  std::vector<unsigned __int128> units;
  std::vector<uint64_t> lanes;
  std::vector<uint64_t> max_bits;
};

/// What every range of pass 2 reads.
struct SumPass {
  const IntMatrix& x0;
  const std::vector<double>& errors;
  std::vector<int64_t> col_base;  // per feature: its first column - 1
  linalg::SumLayout layout;
  int low;                             // the unit exponent of the planes
  size_t columns;                      // l
  std::vector<uint64_t*> plane_words;  // empty when the store has none
  int64_t first_row;                   // of the pass

  RangeSums Run(RowRange range) const;
};

RangeSums SumPass::Run(RowRange range) const {
  const size_t m = col_base.size();
  const size_t l = columns;
  const size_t stride = static_cast<size_t>(layout.lanes);
  // Exact: e / 2^low is an integer below 2^kMaxErrorPlanes (and 2^-low is a
  // double unless the unit is subnormal).
  const double inverse_unit = low >= -1022 ? std::ldexp(1.0, -low) : 0.0;
  RangeSums sums;
  sums.max_bits.assign(l, 0);
  WordBuffer plane_bits(plane_words);
  uint64_t* plane_bit_words = plane_bits.words();
  // Adds add(c, split(e)) for each row's error e to the total and to each of
  // its columns c, and sets its maxima and plane bits.
  const auto scan = [&](auto split, auto add) {
    ForEachWord(
        range, first_row,
        [&](int64_t i, uint64_t bit) {
          const double e = errors[static_cast<size_t>(i)];
          if (e == 0.0) return;  // adds nothing to the sums, maxima or planes
          const int32_t* row = x0.row(i);
          const auto part = split(e);
          add(l, part);
          if (!plane_words.empty()) {
            uint64_t k = static_cast<uint64_t>(
                inverse_unit != 0.0 ? e * inverse_unit : std::ldexp(e, -low));
            for (; k != 0; k &= k - 1) {
              plane_bit_words[std::countr_zero(k)] |= bit;
            }
          }
          const uint64_t e_bits = std::bit_cast<uint64_t>(e);
          for (size_t j = 0; j < m; ++j) {
            const size_t c = static_cast<size_t>(col_base[j] + row[j]);
            add(c, part);
            sums.max_bits[c] = std::max(sums.max_bits[c], e_bits);
          }
        },
        [&](int64_t w, bool merge) { plane_bits.Store(w, merge); });
  };
  if (layout.narrow) {
    sums.units.assign(l + 1, 0);
    scan([&](double e) { return linalg::NarrowUnits(e, layout.scale); },
         [&](size_t c, unsigned __int128 k) { sums.units[c] += k; });
  } else {
    sums.lanes.assign((l + 1) * stride, 0);
    scan(
        [&](double e) {
          return linalg::SplitForLanes(std::bit_cast<uint64_t>(e),
                                       layout.anchor);
        },
        [&](size_t c, const linalg::LaneIncrement& add) {
          linalg::AddToLanes(add, sums.lanes.data() + c * stride);
        });
  }
  return sums;
}

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

void ErrorGrid::Add(const ErrorGrid& other) {
  if (!other.any_) return;
  low_ = any_ ? std::min(low_, other.low_) : other.low_;
  top_ = any_ ? std::max(top_, other.top_) : other.top_;
  any_ = true;
}

ColumnStore::ColumnStore(const IntMatrix& x0, const FeatureOffsets& offsets,
                         const std::vector<double>& errors)
    : ColumnStore(x0, &offsets, errors) {
  const Status built = Accumulate();
  SLICELINE_CHECK(built.ok()) << built.ToString();
}

ColumnStore::ColumnStore(const IntMatrix& x0, const FeatureOffsets* offsets,
                         const std::vector<double>& errors)
    : x0_(&x0), offsets_(offsets), errors_(&errors) {}

StatusOr<std::unique_ptr<ColumnStore>> ColumnStore::Build(
    const IntMatrix& x0, const std::vector<double>& errors) {
  std::unique_ptr<ColumnStore> store(new ColumnStore(x0, nullptr, errors));
  SLICELINE_RETURN_NOT_OK(store->Accumulate());
  return store;
}

Status ColumnStore::Accumulate() {
  const IntMatrix& x0 = *x0_;
  const std::vector<double>& errors = *errors_;
  if (static_cast<int64_t>(errors.size()) != x0.rows()) {
    return Status::InvalidArgument(
        "error vector size " + std::to_string(errors.size()) +
        " does not match " + std::to_string(x0.rows()) + " rows");
  }
  const int64_t begin = n_;
  const int64_t end = x0.rows();
  // A range of pass 1 counts the codes of each feature; before the first
  // build, when l is not known yet, its state is taken as one word per
  // feature.
  const std::vector<RowRange> scan_ranges = SplitRows(
      begin, end, x0.cols(),
      offsets_ != nullptr ? offsets_->total : x0.cols(), /*parallel=*/true);
  std::vector<CodeScan> scans(scan_ranges.size());
  {
    TRACE_SPAN("column_store/pass1", end - begin);
    GlobalThreadPool().ParallelFor(scan_ranges.size(), [&](size_t r) {
      scans[r] = ScanCodes(x0, errors, offsets_, scan_ranges[r]);
    });
  }
  SLICELINE_RETURN_NOT_OK(MergeScans(scans));

  const FeatureOffsets& offsets = *offsets_;
  const size_t l = static_cast<size_t>(offsets.total);
  std::vector<int64_t> col_base;
  for (int64_t fb : offsets.fb) col_base.push_back(fb - 1);
  std::vector<uint64_t*> plane_words;
  for (std::vector<uint64_t>& plane : planes_) {
    plane_words.push_back(plane.data());
  }
  const SumPass pass{.x0 = x0,
                     .errors = errors,
                     .col_base = std::move(col_base),
                     .layout = grid_.layout(),
                     .low = grid_.low_exponent(),
                     .columns = l,
                     .plane_words = std::move(plane_words),
                     .first_row = begin};

  // A range of pass 2 keeps exact accumulators for all l columns.
  const std::vector<RowRange> ranges = SplitRows(
      begin, end, x0.cols(), static_cast<int64_t>(l), /*parallel=*/true);
  std::vector<RangeSums> sums(ranges.size());
  {
    TRACE_SPAN("column_store/pass2", end - begin);
    GlobalThreadPool().ParallelFor(
        ranges.size(), [&](size_t r) { sums[r] = pass.Run(ranges[r]); });
  }

  // Integer adds and maxima across the ranges, then one rounding per column
  // (slot l is the total). The columns are disjoint, so inputs of at least
  // kParallelCodeCells codes merge them on the pool, however many ranges
  // the pass had.
  const linalg::SumLayout& layout = pass.layout;
  const size_t stride = static_cast<size_t>(layout.lanes);
  const auto add_ranges = [&](size_t c, linalg::ExactSum* exact,
                              uint64_t* lanes) {
    std::fill_n(lanes, stride, 0);
    if (layout.narrow) {
      unsigned __int128 units = 0;
      for (const RangeSums& range : sums) units += range.units[c];
      linalg::AddUnitsToLanes(units, layout.low - layout.anchor, lanes);
    } else {
      for (const RangeSums& range : sums) {
        for (size_t k = 0; k < stride; ++k) {
          lanes[k] += range.lanes[c * stride + k];
        }
      }
    }
    exact->AddLanes(lanes, layout);
  };
  const auto merge_columns = [&](size_t first, size_t last) {
    std::vector<uint64_t> lanes(stride);
    for (size_t c = first; c < last; ++c) {
      add_ranges(c, &exact_basic_error_sums_[c], lanes.data());
      basic_error_sums_[c] = exact_basic_error_sums_[c].ToDouble();
      uint64_t max_bits = std::bit_cast<uint64_t>(basic_max_errors_[c]);
      for (const RangeSums& range : sums) {
        max_bits = std::max(max_bits, range.max_bits[c]);
      }
      basic_max_errors_[c] = std::bit_cast<double>(max_bits);
    }
  };
  if ((end - begin) * x0.cols() >= kParallelCodeCells) {
    GlobalThreadPool().ParallelForRange(l, merge_columns);
  } else {
    merge_columns(0, l);
  }
  std::vector<uint64_t> lanes(stride);
  add_ranges(l, &exact_total_error_, lanes.data());
  total_error_ = exact_total_error_.ToDouble();

  // The columns already built grow over the new rows.
  std::vector<int64_t> built;
  for (size_t c = 0; c < l; ++c) {
    if (built_[c]) built.push_back(static_cast<int64_t>(c));
  }
  if (!built.empty()) Fill(built, begin, /*parallel=*/true);
  return Status::OK();
}

Status ColumnStore::MergeScans(const std::vector<CodeScan>& scans) {
  // The ranges are in row order, so the first that reports a bad row holds
  // the first one.
  for (const CodeScan& scan : scans) {
    if (scan.bad_error_row >= 0) {
      return Status::InvalidArgument(
          "errors must be non-negative and finite (row " +
          std::to_string(scan.bad_error_row) + ")");
    }
  }
  for (const CodeScan& scan : scans) {
    if (scan.bad_code_row < 0) continue;
    if (scan.bad_code < 1) {
      return CodeBelowOne(scan.bad_code_row, scan.bad_code_feature,
                          scan.bad_code);
    }
    return Status::InvalidArgument(
        "X0 code " + std::to_string(scan.bad_code) + " at (" +
        std::to_string(scan.bad_code_row) + "," +
        std::to_string(scan.bad_code_feature) + ") is outside the domain [1, " +
        std::to_string(offsets_->fdom[scan.bad_code_feature]) + "]");
  }
  const size_t m = static_cast<size_t>(x0_->cols());
  if (offsets_ == nullptr) {
    // Each feature's largest code is the last one any range counted.
    std::vector<int32_t> domains(m, 0);
    for (const CodeScan& scan : scans) {
      for (size_t j = 0; j < m; ++j) {
        const std::vector<int64_t>& counts = scan.counts[j];
        size_t top = counts.size();
        while (top > 0 && counts[top - 1] == 0) --top;
        domains[j] = std::max(domains[j], static_cast<int32_t>(top));
      }
    }
    owned_offsets_ = OffsetsFromDomains(domains);
    offsets_ = &owned_offsets_;
  }
  const FeatureOffsets& offsets = *offsets_;
  const size_t l = static_cast<size_t>(offsets.total);
  if (basic_sizes_.size() != l) {  // the first build
    basic_sizes_.assign(l, 0);
    basic_error_sums_.assign(l, 0.0);
    basic_max_errors_.assign(l, 0.0);
    exact_basic_error_sums_.assign(l, linalg::ExactSum());
    columns_.resize(l);
    built_.assign(l, 0);
  }
  for (const CodeScan& scan : scans) {
    for (size_t j = 0; j < m; ++j) {
      const size_t codes = std::min(scan.counts[j].size(),
                                    static_cast<size_t>(offsets.fdom[j]));
      for (size_t k = 0; k < codes; ++k) {
        basic_sizes_[static_cast<size_t>(offsets.fb[j]) + k] +=
            scan.counts[j][k];
      }
    }
    grid_.Add(scan.grid);
  }
  n_ = x0_->rows();
  words_ = linalg::BitmapWords(n_);
  has_planes_ = has_planes_ && grid_.planes() <= kMaxErrorPlanes;
  if (has_planes_) {
    ResizePlanes();
  } else {
    planes_.clear();
    plane_words_.clear();
  }
  return Status::OK();
}

void ColumnStore::ResizePlanes() {
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
  planes_view_ = {plane_words_.data(), static_cast<int32_t>(planes_.size()),
                  low};
}

void ColumnStore::Materialize(const int64_t* cols, int64_t count,
                              bool parallel) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // A level's candidates list each column many times: mark, then collect.
  std::vector<uint8_t> wanted;
  for (int64_t k = 0; k < count; ++k) {
    const size_t c = static_cast<size_t>(cols[k]);
    if (built_[c]) continue;
    if (wanted.empty()) wanted.assign(built_.size(), 0);
    wanted[c] = 1;
  }
  if (wanted.empty()) return;
  std::vector<int64_t> fresh;
  for (size_t c = 0; c < wanted.size(); ++c) {
    if (wanted[c]) fresh.push_back(static_cast<int64_t>(c));
  }
  Fill(fresh, 0, parallel);
  for (int64_t c : fresh) built_[static_cast<size_t>(c)] = 1;
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Default()
        ->GetCounter("column_store/columns_lazy")
        ->Add(static_cast<int64_t>(fresh.size()));
  }
}

void ColumnStore::Fill(const std::vector<int64_t>& cols, int64_t begin,
                       bool parallel) const {
  TRACE_SPAN("column_store/fill", static_cast<int64_t>(cols.size()));
  const FeatureOffsets& offsets = *offsets_;
  const int64_t first_word = begin >> 6;
  const int64_t used = (n_ + 63) >> 6;
  // The words a bitmap grows by are not zeroed: the fill writes every word
  // below `used`, each on the pool thread of its range, which also touches
  // that range's pages first. The padding past `used` is zero for the
  // evaluation loop.
  for (int64_t c : cols) {
    auto& column = columns_[static_cast<size_t>(c)];
    column.resize(static_cast<size_t>(words_));
    std::fill(column.begin() + used, column.end(), 0);
  }

  // The listed columns of each feature that owns one, with the scatter's
  // slots: slots[fb + code - 1] is the code's place in its feature's list,
  // or the list's length.
  std::vector<int32_t> values(cols.size());
  std::vector<uint64_t*> dst(cols.size());
  std::vector<int32_t> slots(static_cast<size_t>(offsets.total));
  struct FeatureColumns {
    int64_t feature;
    linalg::FillColumns columns;
  };
  std::vector<FeatureColumns> features;
  for (size_t k = 0; k < cols.size();) {
    const int j = offsets.FeatureOfColumn(cols[k]);
    const int64_t fb = offsets.fb[j];
    size_t end = k;
    while (end < cols.size() && cols[end] < offsets.fe[j]) ++end;
    const int32_t count = static_cast<int32_t>(end - k);
    std::fill(slots.begin() + fb, slots.begin() + offsets.fe[j], count);
    for (size_t i = k; i < end; ++i) {
      values[i] = static_cast<int32_t>(cols[i] - fb + 1);
      dst[i] = columns_[static_cast<size_t>(cols[i])].data();
      slots[static_cast<size_t>(cols[i])] = static_cast<int32_t>(i - k);
    }
    features.push_back(
        {j, {values.data() + k, slots.data() + fb, count, dst.data() + k}});
    k = end;
  }

  // Rows of begin's word that precede it are rebuilt from their codes, which
  // the owner keeps, so every word from there on is written whole, once. A
  // range walks its rows in blocks whose codes stay in cache while each
  // feature reads them.
  const IntMatrix& x0 = *x0_;
  const int64_t m = x0.cols();
  const int64_t block = std::max<int64_t>(64, kFillBlockCodes / m / 64 * 64);
  const linalg::SimdKernels& kernels = linalg::ActiveKernels();
  // A range of the scatter buffers one word per listed column.
  const std::vector<RowRange> ranges =
      SplitRows(first_word * 64, n_, static_cast<int64_t>(features.size()),
                static_cast<int64_t>(cols.size()), parallel);
  GlobalThreadPool().ParallelFor(ranges.size(), [&](size_t r) {
    for (int64_t b = ranges[r].begin; b < ranges[r].end; b += block) {
      const int64_t rows = std::min(block, ranges[r].end - b);
      for (const FeatureColumns& f : features) {
        kernels.fill_words(x0.row(b) + f.feature, m, rows, f.columns, b >> 6);
      }
    }
  });
}

int64_t ColumnStore::built() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::count(built_.begin(), built_.end(), uint8_t{1});
}

int64_t ColumnStore::memory_bytes() const {
  return built() * words_ * static_cast<int64_t>(sizeof(uint64_t));
}

void ColumnStore::Extend() {
  const Status extended = Accumulate();
  SLICELINE_CHECK(extended.ok()) << extended.ToString();
}

}  // namespace sliceline::data
