#include "linalg/kernels_simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define SLICELINE_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define SLICELINE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace sliceline::linalg {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels: portable, always compiled, and the ground truth
// the differential rig holds every vector path to.
// ---------------------------------------------------------------------------

/// The fused_and_popcount of every ISA level: groups of up to four masks,
/// each counted by the level's `Group<n>` in one pass over x.
template <typename Level>
void FusedAndPopcount(const uint64_t* x, const uint64_t* const* masks,
                      int32_t count, int64_t words, int64_t* counts) {
  for (int32_t j = 0; j < count; j += 4) {
    switch (count - j) {
      case 1: Level::template Group<1>(x, masks + j, words, counts + j); break;
      case 2: Level::template Group<2>(x, masks + j, words, counts + j); break;
      case 3: Level::template Group<3>(x, masks + j, words, counts + j); break;
      default: Level::template Group<4>(x, masks + j, words, counts + j);
    }
  }
}

struct FusedScalar {
  template <int N>
  static void Group(const uint64_t* x, const uint64_t* const* masks,
                    int64_t words, int64_t* counts) {
    int64_t total[N] = {};
    for (int64_t w = 0; w < words; ++w) {
      const uint64_t v = x[w];
      for (int j = 0; j < N; ++j) total[j] += std::popcount(v & masks[j][w]);
    }
    std::copy(total, total + N, counts);
  }
};

int64_t IntersectColumnsScalar(const uint64_t* const* cols, int32_t len,
                               uint64_t* dst, int64_t words) {
  SLICELINE_DCHECK(len >= 1);
  std::memcpy(dst, cols[0], static_cast<size_t>(words) * sizeof(uint64_t));
  for (int32_t k = 1; k < len; ++k) {
    for (int64_t w = 0; w < words; ++w) dst[w] &= cols[k][w];
  }
  int64_t total = 0;
  for (int64_t w = 0; w < words; ++w) total += std::popcount(dst[w]);
  return total;
}

/// Adds the k's of `count` errors of a narrow layout to *total, N >= 2
/// lanes at a time (NarrowUnits' split in GCC vector extensions, so one body
/// serves every ISA level; the scalar level's two lanes lower on any
/// target), and raises *max; `count` is a multiple of N.
/// Each lane adds its parts' bit patterns, kSplitMagic's included, and
/// subtracts those at the end.
template <int N>
[[gnu::always_inline]] inline void SumBatch(const double* errors,
                                            int64_t count, double scale,
                                            unsigned __int128* total,
                                            double* max) {
  // typedef, not using: GCC drops a dependent vector_size on an alias.
  typedef double Doubles __attribute__((vector_size(8 * N)));
  typedef uint64_t Bits __attribute__((vector_size(8 * N)));
  Doubles peak = Doubles{} + *max;
  Bits high = Bits{};
  Bits low = Bits{};
  for (int64_t i = 0; i < count; i += N) {
    Doubles e;
    std::memcpy(&e, errors + i, sizeof(e));
    peak = e > peak ? e : peak;
    const Doubles k = e * scale;
    const Doubles h = k * 0x1p-52 + kSplitMagic;
    high += __builtin_bit_cast(Bits, h);
    const Doubles l = k - (h - kSplitMagic) * 0x1p52 + kSplitMagic;
    low += __builtin_bit_cast(Bits, l);
  }
  const uint64_t bias = static_cast<uint64_t>(count / N) *
                        std::bit_cast<uint64_t>(kSplitMagic);
  // The lanes' h sums stay below 2^52 and their l sums below 2^61 in
  // magnitude, so both fold across lanes in 64 bits.
  uint64_t highs[N];
  uint64_t lows[N];
  double peaks[N];
  std::memcpy(highs, &high, sizeof(high));
  std::memcpy(lows, &low, sizeof(low));
  std::memcpy(peaks, &peak, sizeof(peak));
  uint64_t h = 0;
  uint64_t l = 0;
  for (int j = 0; j < N; ++j) {
    h += highs[j] - bias;
    l += lows[j] - bias;
    *max = std::max(*max, peaks[j]);
  }
  *total += (static_cast<unsigned __int128>(h) << 52) +
            static_cast<unsigned __int128>(static_cast<int64_t>(l));
}

/// The masked_sum of every ISA level, with the level's kSumBatch. The set
/// rows' errors are copied out word by word; a narrow layout sums them a
/// batch at a time in registers, a wide one adds each to the lanes. The
/// adds are integer, so every level gets the same lanes.
template <void (*kSumBatch)(const double*, int64_t, double,
                            unsigned __int128*, double*)>
void MaskedSum(const uint64_t* mask, int64_t words, const double* errors,
               const SumLayout& layout, uint64_t* lanes, uint64_t* max_bits) {
  constexpr int64_t kBatch = 256;
  double batch[kBatch + 64];
  int64_t fill = 0;
  unsigned __int128 sum = 0;
  double max = std::bit_cast<double>(*max_bits);
  // Adds batch[0, count), count a multiple of 8; zero padding adds nothing.
  auto flush = [&](int64_t count) {
    if (layout.narrow) {
      kSumBatch(batch, count, layout.scale, &sum, &max);
      return;
    }
    for (int64_t i = 0; i < count; ++i) {
      AddToLanes(SplitForLanes(std::bit_cast<uint64_t>(batch[i]),
                               layout.anchor),
                 lanes);
      max = std::max(max, batch[i]);
    }
  };
  for (int64_t w = 0; w < words; ++w) {
    const double* row = errors + w * 64;
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      batch[fill++] = row[std::countr_zero(bits)];
    }
    if (fill >= kBatch) {
      const int64_t whole = fill / 8 * 8;
      flush(whole);
      std::copy(batch + whole, batch + fill, batch);
      fill -= whole;
    }
  }
  std::fill(batch + fill, batch + fill + 8, 0.0);
  flush((fill + 7) / 8 * 8);
  AddUnitsToLanes(sum, layout.low - layout.anchor, lanes);
  *max_bits = std::bit_cast<uint64_t>(max);
}

/// The scalar fill_words: each row ORs its bit into the buffer word of its
/// code's slot (slot `count` takes the codes no column lists), and each
/// word is stored once.
void FillWordsScalar(const int32_t* codes, int64_t stride, int64_t rows,
                     const FillColumns& columns, int64_t first_word) {
  const size_t count = static_cast<size_t>(columns.count);
  uint64_t small[64];
  std::vector<uint64_t> large;
  uint64_t* words = small;
  if (count >= 64) {
    large.resize(count + 1);
    words = large.data();
  }
  std::fill_n(words, count + 1, 0);
  for (int64_t w = 0; w * 64 < rows; ++w) {
    const int32_t* word_codes = codes + w * 64 * stride;
    const int64_t end = std::min<int64_t>(64, rows - w * 64);
    for (int64_t i = 0; i < end; ++i) {
      words[columns.slot[word_codes[i * stride] - 1]] |= uint64_t{1} << i;
    }
    for (size_t k = 0; k < count; ++k) {
      columns.dst[k][first_word + w] = words[k];
      words[k] = 0;
    }
    words[count] = 0;
  }
}

/// Whether the vector fill_words may compare `columns` on bytes: every
/// listed code is below 255, so a code that saturates to a byte (255, or 0
/// through a signed pack) matches none of them, and the 32-bit gather
/// indices of a word's codes cannot wrap.
bool FillsByBytes(int64_t stride, const FillColumns& columns) {
  if (stride >= (int64_t{1} << 26)) return false;
  for (int32_t k = 0; k < columns.count; ++k) {
    if (columns.values[k] >= 255) return false;
  }
  return true;
}

/// Word `word` of every column of `columns` from the `rows` (< 64) codes
/// at `codes`, by scalar compares: the vector fills' last, partial word.
void FillPartialWord(const int32_t* codes, int64_t stride, int64_t rows,
                     const FillColumns& columns, int64_t word) {
  for (int32_t k = 0; k < columns.count; ++k) {
    uint64_t bits = 0;
    for (int64_t i = 0; i < rows; ++i) {
      bits |= uint64_t{codes[i * stride] == columns.values[k]} << i;
    }
    columns.dst[k][word] = bits;
  }
}

constexpr SimdKernels kScalarKernels = {
    SimdIsa::kScalar,       FusedAndPopcount<FusedScalar>,
    IntersectColumnsScalar, MaskedSum<SumBatch<2>>,
    FillWordsScalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels (256-bit). Popcount is the Mula nibble-LUT pshufb algorithm
// with _mm256_sad_epu8 horizontal accumulation into 64-bit lanes.
// ---------------------------------------------------------------------------

#if defined(SLICELINE_SIMD_X86)

__attribute__((target("avx2"))) inline __m256i PopcountBytesAvx2(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low_mask));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline int64_t HorizontalSum64Avx2(__m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return static_cast<int64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

struct FusedAvx2 {
  template <int N>
  __attribute__((target("avx2"))) static void Group(
      const uint64_t* x, const uint64_t* const* masks, int64_t words,
      int64_t* counts) {
    __m256i acc[N];
    for (int j = 0; j < N; ++j) acc[j] = _mm256_setzero_si256();
    int64_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w));
      for (int j = 0; j < N; ++j) {
        const __m256i mask = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(masks[j] + w));
        acc[j] = _mm256_add_epi64(
            acc[j], PopcountBytesAvx2(_mm256_and_si256(v, mask)));
      }
    }
    for (int j = 0; j < N; ++j) {
      counts[j] = HorizontalSum64Avx2(acc[j]);
      for (int64_t t = w; t < words; ++t) {
        counts[j] += std::popcount(x[t] & masks[j][t]);
      }
    }
  }
};

__attribute__((target("avx2"))) int64_t IntersectColumnsAvx2(
    const uint64_t* const* cols, int32_t len, uint64_t* dst, int64_t words) {
  SLICELINE_DCHECK(len >= 1);
  __m256i acc = _mm256_setzero_si256();
  int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols[0] + w));
    for (int32_t k = 1; k < len; ++k) {
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols[k] + w)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), v);
    acc = _mm256_add_epi64(acc, PopcountBytesAvx2(v));
  }
  int64_t total = HorizontalSum64Avx2(acc);
  for (; w < words; ++w) {
    uint64_t v = cols[0][w];
    for (int32_t k = 1; k < len; ++k) v &= cols[k][w];
    dst[w] = v;
    total += std::popcount(v);
  }
  return total;
}

__attribute__((target("avx2"))) void SumBatchAvx2(const double* errors,
                                                  int64_t count, double scale,
                                                  unsigned __int128* total,
                                                  double* max) {
  SumBatch<4>(errors, count, scale, total, max);
}

/// The codes of 32 rows, `stride` apart from `codes`, as bytes in row
/// order (`index` holds 0, stride, ..., 7 * stride). Each 128-bit lane of
/// the two packs interleaves its four sources; the permute undoes that.
__attribute__((target("avx2"))) inline __m256i CodeBytesAvx2(
    const int32_t* codes, int64_t stride, __m256i index) {
  const __m256i low = _mm256_packus_epi32(
      _mm256_i32gather_epi32(codes, index, 4),
      _mm256_i32gather_epi32(codes + 8 * stride, index, 4));
  const __m256i high = _mm256_packus_epi32(
      _mm256_i32gather_epi32(codes + 16 * stride, index, 4),
      _mm256_i32gather_epi32(codes + 24 * stride, index, 4));
  return _mm256_permutevar8x32_epi32(_mm256_packus_epi16(low, high),
                                     _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

__attribute__((target("avx2"))) void FillWordsAvx2(const int32_t* codes,
                                                   int64_t stride, int64_t rows,
                                                   const FillColumns& columns,
                                                   int64_t first_word) {
  if (!FillsByBytes(stride, columns)) {
    FillWordsScalar(codes, stride, rows, columns, first_word);
    return;
  }
  const __m256i index =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int32_t>(stride)));
  const int64_t whole = rows / 64;
  for (int64_t w = 0; w < whole; ++w) {
    const int32_t* word_codes = codes + w * 64 * stride;
    const __m256i low = CodeBytesAvx2(word_codes, stride, index);
    const __m256i high = CodeBytesAvx2(word_codes + 32 * stride, stride, index);
    for (int32_t k = 0; k < columns.count; ++k) {
      const __m256i code =
          _mm256_set1_epi8(static_cast<char>(columns.values[k]));
      const uint32_t low_bits = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(low, code)));
      const uint32_t high_bits = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(high, code)));
      columns.dst[k][first_word + w] =
          uint64_t{low_bits} | uint64_t{high_bits} << 32;
    }
  }
  if (rows > whole * 64) {
    FillPartialWord(codes + whole * 64 * stride, stride, rows - whole * 64,
                    columns, first_word + whole);
  }
}

constexpr SimdKernels kAvx2Kernels = {
    SimdIsa::kAvx2,       FusedAndPopcount<FusedAvx2>,
    IntersectColumnsAvx2, MaskedSum<SumBatchAvx2>,
    FillWordsAvx2,
};

// ---------------------------------------------------------------------------
// AVX-512 kernels (512-bit, F+BW+VPOPCNTDQ): hardware per-lane popcounts
// (VPOPCNTQ) on full-width vectors. The level needs VPOPCNTDQ; a host
// without it dispatches AVX2.
// ---------------------------------------------------------------------------

// GCC's avx512 headers build the lane extracts of _mm512_reduce_add_epi64
// on an undefined-value intrinsic, which -Wall misreads as a real
// uninitialized use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

struct FusedAvx512 {
  template <int N>
  __attribute__((target("avx512f,avx512vpopcntdq"))) static void Group(
      const uint64_t* x, const uint64_t* const* masks, int64_t words,
      int64_t* counts) {
    __m512i acc[N];
    for (int j = 0; j < N; ++j) acc[j] = _mm512_setzero_si512();
    int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i v = _mm512_loadu_si512(x + w);
      for (int j = 0; j < N; ++j) {
        const __m512i mask = _mm512_loadu_si512(masks[j] + w);
        acc[j] = _mm512_add_epi64(
            acc[j], _mm512_popcnt_epi64(_mm512_and_si512(v, mask)));
      }
    }
    for (int j = 0; j < N; ++j) {
      counts[j] = _mm512_reduce_add_epi64(acc[j]);
      for (int64_t t = w; t < words; ++t) {
        counts[j] += std::popcount(x[t] & masks[j][t]);
      }
    }
  }
};

__attribute__((target("avx512f,avx512vpopcntdq"))) int64_t
IntersectColumnsAvx512(const uint64_t* const* cols, int32_t len, uint64_t* dst,
                       int64_t words) {
  SLICELINE_DCHECK(len >= 1);
  __m512i acc = _mm512_setzero_si512();
  int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i v = _mm512_loadu_si512(cols[0] + w);
    for (int32_t k = 1; k < len; ++k) {
      v = _mm512_and_si512(v, _mm512_loadu_si512(cols[k] + w));
    }
    _mm512_storeu_si512(dst + w, v);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  int64_t total = _mm512_reduce_add_epi64(acc);
  for (; w < words; ++w) {
    uint64_t v = cols[0][w];
    for (int32_t k = 1; k < len; ++k) v &= cols[k][w];
    dst[w] = v;
    total += std::popcount(v);
  }
  return total;
}

__attribute__((target("avx512f"))) void SumBatchAvx512(
    const double* errors, int64_t count, double scale,
    unsigned __int128* total, double* max) {
  SumBatch<8>(errors, count, scale, total, max);
}

/// The codes of 16 rows at `codes` + `index`, saturated to bytes.
__attribute__((target("avx512f"))) inline __m128i CodeBytesAvx512(
    const int32_t* codes, __m512i index) {
  return _mm512_cvtusepi32_epi8(_mm512_i32gather_epi32(index, codes, 4));
}

__attribute__((target("avx512f,avx512bw"))) void FillWordsAvx512(
    const int32_t* codes, int64_t stride, int64_t rows,
    const FillColumns& columns, int64_t first_word) {
  if (!FillsByBytes(stride, columns)) {
    FillWordsScalar(codes, stride, rows, columns, first_word);
    return;
  }
  const __m512i index = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int32_t>(stride)));
  const int64_t whole = rows / 64;
  for (int64_t w = 0; w < whole; ++w) {
    const int32_t* word_codes = codes + w * 64 * stride;
    __m512i bytes = _mm512_castsi128_si512(
        CodeBytesAvx512(word_codes, index));
    bytes = _mm512_inserti32x4(
        bytes, CodeBytesAvx512(word_codes + 16 * stride, index), 1);
    bytes = _mm512_inserti32x4(
        bytes, CodeBytesAvx512(word_codes + 32 * stride, index), 2);
    bytes = _mm512_inserti32x4(
        bytes, CodeBytesAvx512(word_codes + 48 * stride, index), 3);
    for (int32_t k = 0; k < columns.count; ++k) {
      columns.dst[k][first_word + w] = _mm512_cmpeq_epi8_mask(
          bytes, _mm512_set1_epi8(static_cast<char>(columns.values[k])));
    }
  }
  if (rows > whole * 64) {
    FillPartialWord(codes + whole * 64 * stride, stride, rows - whole * 64,
                    columns, first_word + whole);
  }
}

constexpr SimdKernels kAvx512Kernels = {
    SimdIsa::kAvx512,       FusedAndPopcount<FusedAvx512>,
    IntersectColumnsAvx512, MaskedSum<SumBatchAvx512>,
    FillWordsAvx512,
};

#pragma GCC diagnostic pop

#endif  // SLICELINE_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels (aarch64; NEON is architecturally guaranteed there, so no
// cpuid probing — it is simply the best non-scalar level on arm builds).
// ---------------------------------------------------------------------------

#if defined(SLICELINE_SIMD_NEON)

struct FusedNeon {
  template <int N>
  static void Group(const uint64_t* x, const uint64_t* const* masks,
                    int64_t words, int64_t* counts) {
    int64_t total[N] = {};
    int64_t w = 0;
    for (; w + 2 <= words; w += 2) {
      const uint64x2_t v = vld1q_u64(x + w);
      for (int j = 0; j < N; ++j) {
        total[j] += vaddvq_u8(vcntq_u8(
            vreinterpretq_u8_u64(vandq_u64(v, vld1q_u64(masks[j] + w)))));
      }
    }
    for (; w < words; ++w) {
      for (int j = 0; j < N; ++j) total[j] += std::popcount(x[w] & masks[j][w]);
    }
    std::copy(total, total + N, counts);
  }
};

int64_t IntersectColumnsNeon(const uint64_t* const* cols, int32_t len,
                             uint64_t* dst, int64_t words) {
  SLICELINE_DCHECK(len >= 1);
  int64_t total = 0;
  int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    uint64x2_t v = vld1q_u64(cols[0] + w);
    for (int32_t k = 1; k < len; ++k) v = vandq_u64(v, vld1q_u64(cols[k] + w));
    vst1q_u64(dst + w, v);
    total += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
  }
  for (; w < words; ++w) {
    uint64_t v = cols[0][w];
    for (int32_t k = 1; k < len; ++k) v &= cols[k][w];
    dst[w] = v;
    total += std::popcount(v);
  }
  return total;
}

constexpr SimdKernels kNeonKernels = {
    SimdIsa::kNeon,       FusedAndPopcount<FusedNeon>,
    IntersectColumnsNeon, MaskedSum<SumBatch<2>>,
    FillWordsScalar,
};

#endif  // SLICELINE_SIMD_NEON

// ---------------------------------------------------------------------------
// Detection and dispatch.
// ---------------------------------------------------------------------------

std::vector<SimdIsa> DetectAvailableIsas() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
#if defined(SLICELINE_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) isas.push_back(SimdIsa::kAvx2);
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    isas.push_back(SimdIsa::kAvx512);
  }
#elif defined(SLICELINE_SIMD_NEON)
  isas.push_back(SimdIsa::kNeon);
#endif
  return isas;
}

bool IsaAvailable(SimdIsa isa) {
  const std::vector<SimdIsa>& isas = AvailableIsas();
  return std::find(isas.begin(), isas.end(), isa) != isas.end();
}

/// Environment/auto selection, resolved once. SLICELINE_FORCE_ISA names a
/// level the whole process should dispatch at (the CI matrix runs the full
/// suite under scalar and avx2); an unknown or unsupported name logs a
/// warning and falls back to the detected best.
SimdIsa ResolveDefaultIsa() {
  const std::vector<SimdIsa>& isas = AvailableIsas();
  const SimdIsa best = isas.back();
  if (const char* env = std::getenv("SLICELINE_FORCE_ISA")) {
    SimdIsa forced;
    if (!ParseIsaName(env, &forced)) {
      LOG_WARNING << "SLICELINE_FORCE_ISA=" << env
                  << " is not a known ISA (scalar|neon|avx2|avx512); using "
                  << IsaName(best);
      return best;
    }
    if (!IsaAvailable(forced)) {
      LOG_WARNING << "SLICELINE_FORCE_ISA=" << env
                  << " is not supported on this host; using "
                  << IsaName(best);
      return best;
    }
    return forced;
  }
  return best;
}

/// Test/bench override; kScalar values are meaningful, so use a flag.
/// Atomic because the TSan suites flip the forced ISA between runs while
/// pool threads from the previous run may still be parked in ActiveKernels
/// call sites.
std::atomic<bool> g_isa_forced{false};
std::atomic<SimdIsa> g_forced_isa{SimdIsa::kScalar};

}  // namespace

const char* IsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kNeon: return "neon";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
  }
  return "unknown";
}

bool ParseIsaName(const std::string& name, SimdIsa* out) {
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                      SimdIsa::kAvx512}) {
    if (name == IsaName(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

const std::vector<SimdIsa>& AvailableIsas() {
  static const std::vector<SimdIsa> isas = DetectAvailableIsas();
  return isas;
}

SimdIsa SelectedIsa() {
  if (g_isa_forced.load(std::memory_order_acquire)) {
    return g_forced_isa.load(std::memory_order_acquire);
  }
  static const SimdIsa resolved = ResolveDefaultIsa();
  return resolved;
}

const char* SelectedIsaName() { return IsaName(SelectedIsa()); }

void ForceIsa(SimdIsa isa) {
  g_forced_isa.store(IsaAvailable(isa) ? isa : SimdIsa::kScalar,
                     std::memory_order_release);
  g_isa_forced.store(true, std::memory_order_release);
}

void ClearForcedIsa() { g_isa_forced.store(false, std::memory_order_release); }

const SimdKernels& KernelsFor(SimdIsa isa) {
  switch (isa) {
#if defined(SLICELINE_SIMD_X86)
    case SimdIsa::kAvx2:
      if (IsaAvailable(SimdIsa::kAvx2)) return kAvx2Kernels;
      break;
    case SimdIsa::kAvx512:
      if (IsaAvailable(SimdIsa::kAvx512)) return kAvx512Kernels;
      break;
#elif defined(SLICELINE_SIMD_NEON)
    case SimdIsa::kNeon:
      return kNeonKernels;
#endif
    default:
      break;
  }
  return kScalarKernels;
}

const SimdKernels& ActiveKernels() { return KernelsFor(SelectedIsa()); }

namespace {

/// Adds one candidate's error sum over a word tile to `lanes`, in units of
/// `unit` = 2^ErrorPlanes::low, and raises *max_bits by a top-down plane
/// walk that stops once it cannot beat it. For j < live, the candidate's
/// rows in plane bits[j] (ascending) are x & plane_rows[j], and counts[j]
/// is their popcount; planes not listed hold none of its rows. So the sum
/// of k is the sum over j of 2^bits[j] * counts[j], and the largest k is at
/// most the OR of the planes it hits. x and plane_rows cover the tile's
/// `span` words, which start at row word w0 of the planes; `scratch` holds
/// 2 * span words.
void AddPlaneCounts(const SimdKernels& kernels, const int64_t* counts,
                    const uint64_t* x, const uint64_t* const* plane_rows,
                    const int32_t* bits, int32_t live, int64_t span,
                    const ErrorSource& errors, double unit, int64_t w0,
                    uint64_t* scratch, uint64_t* lanes, uint64_t* max_bits) {
  const ErrorPlanes& planes = *errors.planes;
  SLICELINE_DCHECK(planes.count <= 62);
  int64_t units = 0;
  int64_t hit = 0;  // planes with at least one of the rows
  int32_t top = 0;
  for (int32_t j = 0; j < live; ++j) {
    if (counts[j] == 0) continue;
    units += counts[j] << bits[j];
    hit |= int64_t{1} << bits[j];
    top = j;
  }
  AddUnitsToLanes(static_cast<unsigned __int128>(units),
                  planes.low - errors.layout.anchor, lanes);
  // Unit multiples below 2^16 units are exact doubles.
  const double max = std::bit_cast<double>(*max_bits);
  if (static_cast<double>(hit) * unit <= max) return;
  // Top-down walk: `rows` keeps the rows whose k agrees with `best` on
  // every plane walked so far; a lower plane joins `best` iff one of them
  // has it. The rows of the top plane are built lazily, so a single-plane
  // hit (0/1 errors) never touches the scratch.
  int b = bits[top];
  int64_t best = int64_t{1} << b;
  uint64_t* rows = nullptr;
  uint64_t* spare = scratch;
  for (--b; b >= 0; --b) {
    if ((hit >> b & 1) == 0) continue;
    const int64_t reachable = best | (hit & ((int64_t{2} << b) - 1));
    if (static_cast<double>(reachable) * unit <= max) return;
    if (rows == nullptr) {
      const uint64_t* pair[2] = {x, plane_rows[top]};
      kernels.intersect_columns(pair, 2, spare, span);
      rows = spare;
      spare = scratch + span;
    }
    const uint64_t* pair[2] = {rows, planes.planes[b] + w0};
    if (kernels.intersect_columns(pair, 2, spare, span) != 0) {
      best |= int64_t{1} << b;
      std::swap(rows, spare);
    }
  }
  *max_bits = std::max(*max_bits, std::bit_cast<uint64_t>(
                                      static_cast<double>(best) * unit));
}

}  // namespace

void EvaluateCandidatesBlocked(const SimdKernels& kernels,
                               const CandidateColumns* candidates,
                               int64_t count, int64_t words,
                               const ErrorSource& errors, int64_t* sizes,
                               uint64_t* lanes, uint64_t* max_bits,
                               int64_t first_row) {
  const int64_t first_word = first_row >> 6;
  if (count <= 0 || first_word >= words) return;
  // Rows [first_word * 64, first_row) of the first word are not ours.
  const uint64_t keep = ~uint64_t{0} << (first_row & 63);
  // The runs are [0, run_ends[0]), [run_ends[0], run_ends[1]), ...
  std::vector<int64_t> run_ends;
  int32_t max_len = 1;
  for (int64_t c = 0; c < count; ++c) {
    SLICELINE_DCHECK(candidates[c].len >= 1);
    max_len = std::max(max_len, candidates[c].len);
    if (c + 1 == count ||
        !ContinuesRun(candidates[c].cols, candidates[c].len,
                      candidates[c + 1].cols, candidates[c + 1].len)) {
      run_ends.push_back(c + 1);
    }
  }
  const ErrorPlanes* planes = errors.planes;
  const int32_t plane_count = planes != nullptr ? planes->count : 0;
  const int64_t stride = errors.layout.lanes;
  const int64_t tile_words = std::min(words - first_word, kEvaluateWordTile);
  // Per tile: the run's prefix (or a lone candidate's rows), a sibling's
  // rows, then with planes the walk's two buffers and the prefix's AND with
  // each plane.
  const auto scratch = std::make_unique_for_overwrite<uint64_t[]>(
      static_cast<size_t>((planes != nullptr ? 4 + plane_count : 2) *
                          tile_words));
  uint64_t* const prefix_words = scratch.get();
  uint64_t* const sibling_words = prefix_words + tile_words;
  uint64_t* const walk_words = sibling_words + tile_words;
  uint64_t* const plane_words = walk_words + 2 * tile_words;
  std::vector<const uint64_t*> shifted(static_cast<size_t>(max_len));
  // What a sibling's fused count reads: the prefix, then the rows of each
  // plane the prefix hits; bits[j] is the plane of fused[j + 1].
  std::vector<const uint64_t*> fused(static_cast<size_t>(1 + plane_count));
  std::vector<int32_t> bits(static_cast<size_t>(plane_count));
  std::vector<int64_t> counts(static_cast<size_t>(1 + plane_count));
  const double unit = planes != nullptr ? std::ldexp(1.0, planes->low) : 0.0;
  // A plane costs a popcount per word, the exact masked kernel a short
  // integer step per set bit; the vector popcounts are ~16x cheaper than
  // the scalar one. So rows too sparse to pay for a popcount per plane word
  // run masked_sum.
  const int64_t bit_weight = kernels.isa == SimdIsa::kScalar ? 1 : 16;

  for (int64_t w0 = first_word; w0 < words; w0 += kEvaluateWordTile) {
    const int64_t span = std::min(words - w0, kEvaluateWordTile);
    const bool trim = w0 == first_word && keep != ~uint64_t{0};
    int64_t begin = 0;
    for (const int64_t end : run_ends) {
      const CandidateColumns& head = candidates[begin];
      const bool lone = end - begin == 1;
      // A lone candidate's rows, or the prefix its run's siblings share.
      const int32_t shared = lone ? head.len : head.len - 1;
      const uint64_t* prefix = prefix_words;
      int64_t prefix_ones;
      if (shared == 1 && !trim) {
        // x & x = x: the fused count of the column against itself.
        prefix = head.cols[0] + w0;
        kernels.fused_and_popcount(prefix, &prefix, 1, span, &prefix_ones);
      } else {
        for (int32_t k = 0; k < shared; ++k) shifted[k] = head.cols[k] + w0;
        prefix_ones = kernels.intersect_columns(shifted.data(), shared,
                                                prefix_words, span);
        if (trim) {
          prefix_ones -= std::popcount(prefix_words[0] & ~keep);
          prefix_words[0] &= keep;
        }
      }
      const int64_t run_begin = begin;
      begin = end;
      if (prefix_ones == 0) continue;
      const bool by_planes =
          planes != nullptr && prefix_ones * bit_weight >= plane_count * span;
      int32_t live = 0;
      fused[0] = prefix;
      for (int32_t b = 0; by_planes && b < plane_count; ++b) {
        const uint64_t* plane = planes->planes[b] + w0;
        if (!lone) {
          // Planes the prefix misses add nothing to any sibling.
          const uint64_t* pair[2] = {prefix, plane};
          uint64_t* rows = plane_words + live * tile_words;
          if (kernels.intersect_columns(pair, 2, rows, span) == 0) continue;
          plane = rows;
        }
        fused[1 + live] = plane;
        bits[live++] = b;
      }
      if (lone) {
        sizes[run_begin] += prefix_ones;
        uint64_t* const lanes_of = lanes + run_begin * stride;
        if (by_planes) {
          kernels.fused_and_popcount(prefix, fused.data() + 1, live, span,
                                     counts.data());
          AddPlaneCounts(kernels, counts.data(), prefix, fused.data() + 1,
                         bits.data(), live, span, errors, unit, w0,
                         walk_words, lanes_of, max_bits + run_begin);
        } else {
          kernels.masked_sum(prefix, span, errors.values + w0 * 64,
                             errors.layout, lanes_of, max_bits + run_begin);
        }
        continue;
      }
      for (int64_t c = run_begin; c < end; ++c) {
        const uint64_t* last = candidates[c].cols[head.len - 1] + w0;
        if (by_planes) {
          kernels.fused_and_popcount(last, fused.data(), 1 + live, span,
                                     counts.data());
          if (counts[0] == 0) continue;
          sizes[c] += counts[0];
          AddPlaneCounts(kernels, counts.data() + 1, last, fused.data() + 1,
                         bits.data(), live, span, errors, unit, w0,
                         walk_words, lanes + c * stride, max_bits + c);
        } else {
          const uint64_t* pair[2] = {prefix, last};
          const int64_t ones =
              kernels.intersect_columns(pair, 2, sibling_words, span);
          if (ones == 0) continue;
          sizes[c] += ones;
          kernels.masked_sum(sibling_words, span, errors.values + w0 * 64,
                             errors.layout, lanes + c * stride, max_bits + c);
        }
      }
    }
  }
}

}  // namespace sliceline::linalg
