#ifndef SLICELINE_LINALG_EXACT_SUM_H_
#define SLICELINE_LINALG_EXACT_SUM_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sliceline::linalg {

/// Fixed-point layout of the exact error sums over one error vector.
///
/// Every finite, non-negative double is an odd integer times a power of two;
/// if 2^low is the lowest set bit of a vector and 2^top bounds it from above,
/// every error is k * 2^low for an integer k < 2^(top - low). An accumulator
/// is `lanes` unsigned 64-bit lanes; lane i counts in units of
/// 2^(anchor + 32 i), where anchor is low rounded down to a multiple of 32,
/// and an error odd * 2^e adds odd << (p % 32) at lane p / 32 (p = e -
/// anchor), split over three lanes as 32-bit digits. Each add puts less than
/// 2^32 into a lane, so 2^32 adds fit before a carry has to move, and no add
/// ever rounds: the integer a set of lanes holds does not depend on the
/// order of the adds.
///
/// The spread top - low fixes the lane count. When it leaves 33 bits of a
/// 128-bit integer free and 2^-low is a normal double (`narrow`), one kernel
/// call instead sums its k's (NarrowUnits) in registers and adds the total
/// to the lanes once.
struct SumLayout {
  int32_t low = 0;     ///< every error is a multiple of 2^low
  int32_t anchor = 0;  ///< exponent of lane 0's unit; a multiple of 32
  int32_t lanes = 0;   ///< lanes per accumulator
  bool narrow = false; ///< top - low <= 95 and -1023 <= low <= 1022
  double scale = 1.0;  ///< 2^-low when narrow

  /// The layout for errors whose set bits all lie in [2^low, 2^top).
  static SumLayout ForBits(int low, int top);
};

/// What adding one double does to an accumulator: digits[k] goes to lane
/// `lane + k`.
struct LaneIncrement {
  int32_t lane;
  uint64_t digits[3];
};

/// The odd part of the non-negative finite double with bit pattern `bits`
/// and the exponent of its lowest set bit (0 and an arbitrary exponent for
/// zero).
inline uint64_t OddPart(uint64_t bits, int32_t* exponent) {
  const int32_t biased = static_cast<int32_t>(bits >> 52);
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) |
                     (static_cast<uint64_t>(biased != 0) << 52);
  // Subnormals share exponent 1 with the smallest normals; a zero shifts by
  // 63 and stays zero.
  const int tz = std::countr_zero(m | (uint64_t{1} << 63));
  *exponent = (biased | static_cast<int32_t>(biased == 0)) - 1075 + tz;
  return m >> tz;
}

/// Splits the non-negative finite double with bit pattern `bits` for an
/// accumulator whose lane 0 counts units of 2^anchor. Every non-zero value
/// must lie inside the layout's bits; a zero adds nothing.
inline LaneIncrement SplitForLanes(uint64_t bits, int32_t anchor) {
  int32_t exponent;
  const uint64_t odd = OddPart(bits, &exponent);
  const int32_t p = odd == 0 ? 0 : exponent - anchor;
  const unsigned __int128 t = static_cast<unsigned __int128>(odd) << (p & 31);
  return {p >> 5,
          {static_cast<uint32_t>(t), static_cast<uint32_t>(t >> 32),
           static_cast<uint64_t>(t >> 64)}};
}

inline void AddToLanes(const LaneIncrement& add, uint64_t* lanes) {
  uint64_t* lane = lanes + add.lane;
  lane[0] += add.digits[0];
  lane[1] += add.digits[1];
  lane[2] += add.digits[2];
}

/// The magic constant of the narrow split: adding it to a double integer x
/// with |x| <= 2^51 gives a double whose bit pattern is x plus its own.
inline constexpr double kSplitMagic = 0x1.8p52;

/// k = e * 2^-low for an error e of a narrow layout (scale = 2^-low). The
/// scaling is exact (an integer below 2^95), and so is the split
/// k = h * 2^52 + l with h = k / 2^52 rounded to nearest and |l| <= 2^51:
/// both parts convert to integers through kSplitMagic, with no conversion
/// instruction, which lets the kernels run the same arithmetic in vectors.
inline unsigned __int128 NarrowUnits(double e, double scale) {
  const uint64_t magic = std::bit_cast<uint64_t>(kSplitMagic);
  const double k = e * scale;
  const double h = k * 0x1p-52 + kSplitMagic;
  const double l = k - (h - kSplitMagic) * 0x1p52 + kSplitMagic;
  return (static_cast<unsigned __int128>(std::bit_cast<uint64_t>(h) - magic)
          << 52) +
         static_cast<unsigned __int128>(
             static_cast<int64_t>(std::bit_cast<uint64_t>(l) - magic));
}

/// Adds units * 2^(anchor + shift) to an accumulator, 0 <= shift < 32: a
/// 160-bit value, so the accumulator needs five lanes.
inline void AddUnitsToLanes(unsigned __int128 units, int32_t shift,
                            uint64_t* lanes) {
  const unsigned __int128 low = units << shift;
  lanes[0] += static_cast<uint32_t>(low);
  lanes[1] += static_cast<uint32_t>(low >> 32);
  lanes[2] += static_cast<uint32_t>(low >> 64);
  lanes[3] += static_cast<uint32_t>(low >> 96);
  lanes[4] += shift == 0 ? 0 : static_cast<uint64_t>(units >> (128 - shift));
}

/// The double nearest the exact value of an accumulator (ties to even),
/// without allocating.
double RoundLanes(const uint64_t* lanes, const SumLayout& layout);

/// An exact, order-free sum of non-negative finite doubles: the integer
/// sum_i digits[i] * 2^(anchor + 32 i), kept canonical (no zero digit at
/// either end; zero is the empty sum with anchor 0). It carries its own
/// anchor, so sums built over different stores, tiles, shards or appends
/// add without rounding, and ToDouble rounds once, to nearest, ties to even.
class ExactSum {
 public:
  /// Most digits a sum of doubles can need: 2^-1088 up to 2^1088 with the
  /// headroom of 2^64 adds. The wire decoder rejects longer sums.
  static constexpr int kMaxDigits = 69;
  /// Anchors a sum can carry: multiples of 32 in [kMinAnchor, kMaxAnchor].
  static constexpr int kMinAnchor = -1088;
  static constexpr int kMaxAnchor = 1088;

  ExactSum() = default;

  /// Rebuilds a sum shipped as (anchor, digits); fails on an anchor outside
  /// the range or off the 32-bit grid, or on more than kMaxDigits digits.
  static StatusOr<ExactSum> FromDigits(int64_t anchor,
                                       std::vector<uint32_t> digits);

  void Add(double e);
  void Add(const ExactSum& other);
  /// Adds the value of an accumulator of `layout`.
  void AddLanes(const uint64_t* lanes, const SumLayout& layout);

  double ToDouble() const;

  int32_t anchor() const { return anchor_; }
  const std::vector<uint32_t>& digits() const { return digits_; }
  bool operator==(const ExactSum& other) const = default;

 private:
  /// Adds digits `src` whose lowest has weight 2^anchor.
  void AddDigits(const uint32_t* src, size_t count, int32_t anchor);

  int32_t anchor_ = 0;
  std::vector<uint32_t> digits_;
};

}  // namespace sliceline::linalg

#endif  // SLICELINE_LINALG_EXACT_SUM_H_
