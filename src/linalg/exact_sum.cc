#include "linalg/exact_sum.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace sliceline::linalg {

namespace {

/// Largest multiple of 32 at or below v.
int32_t FloorTo32(int32_t v) { return v >= 0 ? v / 32 * 32 : -((-v + 31) / 32 * 32); }

/// Folds an accumulator's lanes (each up to 2^64 - 1) into 32-bit digits;
/// `out` holds lanes + 2 digits. Returns the digit count written.
size_t NormalizeLanes(const uint64_t* lanes, int32_t count, uint32_t* out) {
  unsigned __int128 carry = 0;
  size_t d = 0;
  for (int32_t i = 0; i < count; ++i) {
    carry += lanes[i];
    out[d++] = static_cast<uint32_t>(carry);
    carry >>= 32;
  }
  while (carry != 0) {
    out[d++] = static_cast<uint32_t>(carry);
    carry >>= 32;
  }
  return d;
}

/// Bits [pos, pos + 64) of the integer held by `count` digits.
uint64_t Bits64(const uint32_t* digits, size_t count, int64_t pos) {
  uint64_t out = 0;
  const size_t first = static_cast<size_t>(pos >> 5);
  const int shift = static_cast<int>(pos & 31);
  unsigned __int128 window = 0;
  for (size_t k = 0; k < 3 && first + k < count; ++k) {
    window |= static_cast<unsigned __int128>(digits[first + k]) << (32 * k);
  }
  out = static_cast<uint64_t>(window >> shift);
  return out;
}

/// m * 2^exponent, exact whenever the result is a double: a multiply by a
/// power of two in the normal range, ldexp elsewhere.
double Scale(double m, int64_t exponent) {
  if (exponent >= -1022 && exponent <= 1023) {
    return m * std::bit_cast<double>(static_cast<uint64_t>(exponent + 1023)
                                     << 52);
  }
  return std::ldexp(m, static_cast<int>(exponent));
}

/// The double nearest digits * 2^anchor, ties to even. Every value that is
/// a sum of doubles is a multiple of 2^-1074, so a result below 2^-1022 is
/// exact and a rounded result is normal: ldexp never rounds a second time.
double RoundDigits(const uint32_t* digits, size_t count, int32_t anchor) {
  while (count > 0 && digits[count - 1] == 0) --count;
  if (count == 0) return 0.0;
  const int64_t width =
      32 * static_cast<int64_t>(count - 1) + std::bit_width(digits[count - 1]);
  if (width <= 53) {
    return Scale(static_cast<double>(Bits64(digits, count, 0)), anchor);
  }
  const int64_t shift = width - 53;
  uint64_t m = Bits64(digits, count, shift) & ((uint64_t{1} << 53) - 1);
  const int64_t guard = shift - 1;
  const bool half = (digits[guard >> 5] >> (guard & 31)) & 1;
  bool sticky = (digits[guard >> 5] & ((uint32_t{1} << (guard & 31)) - 1)) != 0;
  for (int64_t d = (guard >> 5) - 1; d >= 0 && !sticky; --d) {
    sticky = digits[d] != 0;
  }
  if (half && (sticky || (m & 1) != 0)) ++m;
  return Scale(static_cast<double>(m), anchor + shift);
}

}  // namespace

SumLayout SumLayout::ForBits(int low, int top) {
  SumLayout layout;
  layout.low = low;
  layout.anchor = FloorTo32(low);
  // An error's top digit lands at most two lanes above its lowest; a narrow
  // call adds five lanes of a 160-bit total.
  layout.lanes = std::max(5, (top - layout.anchor + 31) / 32 + 2);
  layout.narrow = top - low <= 95 && low >= -1023 && low <= 1022;
  if (layout.narrow) layout.scale = std::ldexp(1.0, -low);
  return layout;
}

double RoundLanes(const uint64_t* lanes, const SumLayout& layout) {
  uint32_t digits[ExactSum::kMaxDigits + 4];
  const size_t count = NormalizeLanes(lanes, layout.lanes, digits);
  return RoundDigits(digits, count, layout.anchor);
}

StatusOr<ExactSum> ExactSum::FromDigits(int64_t anchor,
                                        std::vector<uint32_t> digits) {
  if (anchor < kMinAnchor || anchor > kMaxAnchor || anchor % 32 != 0) {
    return Status::InvalidArgument("exact sum anchor " +
                                   std::to_string(anchor) + " out of range");
  }
  if (digits.size() > static_cast<size_t>(kMaxDigits)) {
    return Status::InvalidArgument("exact sum has " +
                                   std::to_string(digits.size()) +
                                   " digits, more than " +
                                   std::to_string(kMaxDigits));
  }
  ExactSum sum;
  sum.AddDigits(digits.data(), digits.size(), static_cast<int32_t>(anchor));
  return sum;
}

void ExactSum::Add(double e) {
  if (e == 0.0) return;  // either zero adds nothing; -0.0 has no odd part
  const uint64_t bits = std::bit_cast<uint64_t>(e);
  int32_t exponent;
  OddPart(bits, &exponent);
  SumLayout layout;
  layout.anchor = FloorTo32(exponent);
  layout.lanes = 3;
  uint64_t lanes[3] = {0, 0, 0};
  AddToLanes(SplitForLanes(bits, layout.anchor), lanes);
  AddLanes(lanes, layout);
}

void ExactSum::Add(const ExactSum& other) {
  AddDigits(other.digits_.data(), other.digits_.size(), other.anchor_);
}

void ExactSum::AddLanes(const uint64_t* lanes, const SumLayout& layout) {
  uint32_t digits[kMaxDigits + 4];
  const size_t count = NormalizeLanes(lanes, layout.lanes, digits);
  AddDigits(digits, count, layout.anchor);
}

void ExactSum::AddDigits(const uint32_t* src, size_t count, int32_t anchor) {
  while (count > 0 && src[count - 1] == 0) --count;
  while (count > 0 && src[0] == 0) {
    ++src;
    --count;
    anchor += 32;
  }
  if (count == 0) return;
  if (digits_.empty()) {
    digits_.assign(src, src + count);
    anchor_ = anchor;
    return;
  }
  if (anchor < anchor_) {
    digits_.insert(digits_.begin(), static_cast<size_t>((anchor_ - anchor) / 32),
                   0u);
    anchor_ = anchor;
  }
  const size_t offset = static_cast<size_t>((anchor - anchor_) / 32);
  if (digits_.size() < offset + count) digits_.resize(offset + count, 0u);
  uint64_t carry = 0;
  size_t i = offset;
  for (size_t k = 0; k < count; ++k, ++i) {
    carry += static_cast<uint64_t>(digits_[i]) + src[k];
    digits_[i] = static_cast<uint32_t>(carry);
    carry >>= 32;
  }
  for (; carry != 0; ++i) {
    if (i == digits_.size()) digits_.push_back(0u);
    carry += digits_[i];
    digits_[i] = static_cast<uint32_t>(carry);
    carry >>= 32;
  }
  // Canonical form: carries may have zeroed low digits.
  size_t low = 0;
  while (digits_[low] == 0) ++low;
  if (low > 0) {
    digits_.erase(digits_.begin(), digits_.begin() + static_cast<ptrdiff_t>(low));
    anchor_ += static_cast<int32_t>(32 * low);
  }
}

double ExactSum::ToDouble() const {
  return RoundDigits(digits_.data(), digits_.size(), anchor_);
}

}  // namespace sliceline::linalg
