// Test-side reference for exact error sums: a plain big integer in units of
// 2^-1074 (the weight of the lowest bit of every double), grown bit by bit
// with no shared code with linalg::ExactSum, and rounded to the nearest
// double with ties to even by walking its bits one at a time.
#ifndef SLICELINE_TESTS_REFERENCE_SUM_H_
#define SLICELINE_TESTS_REFERENCE_SUM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace sliceline::testing {

class ReferenceSum {
 public:
  /// Adds a finite, non-negative double exactly.
  void Add(double e) {
    const uint64_t bits = std::bit_cast<uint64_t>(e);
    const uint64_t biased = bits >> 52;
    uint64_t m = bits & ((uint64_t{1} << 52) - 1);
    int64_t shift = 0;  // e == m * 2^(shift - 1074)
    if (biased != 0) {
      m |= uint64_t{1} << 52;
      shift = static_cast<int64_t>(biased) - 1;
    }
    const size_t w = static_cast<size_t>(shift / 64);
    const int r = static_cast<int>(shift % 64);
    AddWord(w, m << r);
    if (r > 11) AddWord(w + 1, m >> (64 - r));
  }

  void Add(const ReferenceSum& other) {
    for (size_t i = 0; i < other.words_.size() * 64; ++i) {
      if (other.Bit(static_cast<int64_t>(i))) AddBit(static_cast<int64_t>(i));
    }
  }

  /// The nearest double, ties to even (+inf past the largest double).
  double Round() const {
    int64_t top = -1;
    for (int64_t i = static_cast<int64_t>(words_.size()) * 64 - 1; i >= 0;
         --i) {
      if (Bit(i)) {
        top = i;
        break;
      }
    }
    if (top < 0) return 0.0;
    const int64_t low = top >= 52 ? top - 52 : 0;
    uint64_t m = 0;
    for (int64_t i = top; i >= low; --i) m = (m << 1) | (Bit(i) ? 1 : 0);
    if (low > 0) {
      const bool half = Bit(low - 1);
      bool sticky = false;
      for (int64_t i = low - 2; i >= 0 && !sticky; --i) sticky = Bit(i);
      if (half && (sticky || (m & 1) != 0)) ++m;
    }
    return std::ldexp(static_cast<double>(m), static_cast<int>(low - 1074));
  }

 private:
  bool Bit(int64_t i) const {
    const size_t w = static_cast<size_t>(i / 64);
    return w < words_.size() && ((words_[w] >> (i % 64)) & 1) != 0;
  }

  void AddBit(int64_t i) {
    AddWord(static_cast<size_t>(i / 64), uint64_t{1} << (i % 64));
  }

  /// Adds v * 2^(64 w), carrying into the words above.
  void AddWord(size_t w, uint64_t v) {
    for (; v != 0; ++w, v = 1) {
      if (w >= words_.size()) words_.resize(w + 1, 0);
      words_[w] += v;
      if (words_[w] >= v) return;  // no carry out
    }
  }

  std::vector<uint64_t> words_;
};

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTS_REFERENCE_SUM_H_
