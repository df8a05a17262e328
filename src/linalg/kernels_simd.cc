#include "linalg/kernels_simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <utility>

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

void AndInPlaceScalar(uint64_t* dst, const uint64_t* src, int64_t words) {
  for (int64_t w = 0; w < words; ++w) dst[w] &= src[w];
}

int64_t PopcountScalar(const uint64_t* a, int64_t words) {
  int64_t total = 0;
  for (int64_t w = 0; w < words; ++w) total += std::popcount(a[w]);
  return total;
}

int64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b,
                          int64_t words) {
  int64_t total = 0;
  for (int64_t w = 0; w < words; ++w) total += std::popcount(a[w] & b[w]);
  return total;
}

int64_t IntersectColumnsScalar(const uint64_t* const* cols, int32_t len,
                               uint64_t* dst, int64_t words) {
  SLICELINE_DCHECK(len >= 1);
  std::memcpy(dst, cols[0], static_cast<size_t>(words) * sizeof(uint64_t));
  for (int32_t k = 1; k < len; ++k) AndInPlaceScalar(dst, cols[k], words);
  return PopcountScalar(dst, words);
}

/// Walks the set bits of one word in ascending order, accumulating the
/// masked error statistics. Shared verbatim by every ISA level: the vector
/// units only accelerate finding the non-zero words, so the float
/// accumulation order is identical everywhere.
inline void AccumulateWord(uint64_t bits, int64_t base_row,
                           const double* errors, MaskedStats* acc) {
  while (bits != 0) {
    const int bit = std::countr_zero(bits);
    bits &= bits - 1;
    const double e = errors[base_row + bit];
    ++acc->count;
    acc->sum += e;
    if (e > acc->max) acc->max = e;
  }
}

void MaskedStatsScalar(const uint64_t* mask, int64_t words,
                       const double* errors, MaskedStats* acc) {
  for (int64_t w = 0; w < words; ++w) {
    AccumulateWord(mask[w], w * 64, errors, acc);
  }
}

constexpr SimdKernels kScalarKernels = {
    SimdIsa::kScalar,        AndInPlaceScalar,      PopcountScalar,
    AndPopcountScalar,       IntersectColumnsScalar, MaskedStatsScalar,
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

__attribute__((target("avx2"))) void AndInPlaceAvx2(uint64_t* dst,
                                                    const uint64_t* src,
                                                    int64_t words) {
  int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_and_si256(a, b));
  }
  for (; w < words; ++w) dst[w] &= src[w];
}

__attribute__((target("avx2"))) int64_t PopcountAvx2(const uint64_t* a,
                                                     int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    acc = _mm256_add_epi64(acc, PopcountBytesAvx2(v));
  }
  int64_t total = HorizontalSum64Avx2(acc);
  for (; w < words; ++w) total += std::popcount(a[w]);
  return total;
}

__attribute__((target("avx2"))) int64_t AndPopcountAvx2(const uint64_t* a,
                                                        const uint64_t* b,
                                                        int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, PopcountBytesAvx2(v));
  }
  int64_t total = HorizontalSum64Avx2(acc);
  for (; w < words; ++w) total += std::popcount(a[w] & b[w]);
  return total;
}

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

__attribute__((target("avx2"))) void MaskedStatsAvx2(const uint64_t* mask,
                                                     int64_t words,
                                                     const double* errors,
                                                     MaskedStats* acc) {
  int64_t w = 0;
  // Vector fast path: skip 4 all-zero words per vptest. Sparse masks (the
  // common case deep in the lattice) reduce to a handful of bit walks.
  for (; w + 4 <= words; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    if (_mm256_testz_si256(v, v)) continue;
    for (int64_t i = w; i < w + 4; ++i) {
      AccumulateWord(mask[i], i * 64, errors, acc);
    }
  }
  for (; w < words; ++w) AccumulateWord(mask[w], w * 64, errors, acc);
}

constexpr SimdKernels kAvx2Kernels = {
    SimdIsa::kAvx2,    AndInPlaceAvx2,       PopcountAvx2,
    AndPopcountAvx2,   IntersectColumnsAvx2, MaskedStatsAvx2,
};

// ---------------------------------------------------------------------------
// AVX-512 kernels (512-bit, F+BW): same nibble-LUT popcount on full-width
// vectors. VPOPCNTDQ is deliberately not required — the LUT form runs on
// every avx512f+bw part and benchmarks within noise of it on these widths.
// ---------------------------------------------------------------------------

// GCC's avx512 headers build _mm512_broadcast_i32x4 on an undefined-value
// intrinsic, which -Wall misreads as a real uninitialized use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx512bw"))) inline __m512i PopcountBytesAvx512(
    __m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(v, low_mask));
  const __m512i hi = _mm512_shuffle_epi8(
      lut, _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask));
  return _mm512_sad_epu8(_mm512_add_epi8(lo, hi), _mm512_setzero_si512());
}

__attribute__((target("avx512f,avx512bw"))) void AndInPlaceAvx512(
    uint64_t* dst, const uint64_t* src, int64_t words) {
  int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i a = _mm512_loadu_si512(dst + w);
    const __m512i b = _mm512_loadu_si512(src + w);
    _mm512_storeu_si512(dst + w, _mm512_and_si512(a, b));
  }
  for (; w < words; ++w) dst[w] &= src[w];
}

__attribute__((target("avx512f,avx512bw"))) int64_t PopcountAvx512(
    const uint64_t* a, int64_t words) {
  __m512i acc = _mm512_setzero_si512();
  int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(acc, PopcountBytesAvx512(_mm512_loadu_si512(a + w)));
  }
  int64_t total = _mm512_reduce_add_epi64(acc);
  for (; w < words; ++w) total += std::popcount(a[w]);
  return total;
}

__attribute__((target("avx512f,avx512bw"))) int64_t AndPopcountAvx512(
    const uint64_t* a, const uint64_t* b, int64_t words) {
  __m512i acc = _mm512_setzero_si512();
  int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + w),
                                       _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, PopcountBytesAvx512(v));
  }
  int64_t total = _mm512_reduce_add_epi64(acc);
  for (; w < words; ++w) total += std::popcount(a[w] & b[w]);
  return total;
}

__attribute__((target("avx512f,avx512bw"))) int64_t IntersectColumnsAvx512(
    const uint64_t* const* cols, int32_t len, uint64_t* dst, int64_t words) {
  SLICELINE_DCHECK(len >= 1);
  __m512i acc = _mm512_setzero_si512();
  int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i v = _mm512_loadu_si512(cols[0] + w);
    for (int32_t k = 1; k < len; ++k) {
      v = _mm512_and_si512(v, _mm512_loadu_si512(cols[k] + w));
    }
    _mm512_storeu_si512(dst + w, v);
    acc = _mm512_add_epi64(acc, PopcountBytesAvx512(v));
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

__attribute__((target("avx512f,avx512bw"))) void MaskedStatsAvx512(
    const uint64_t* mask, int64_t words, const double* errors,
    MaskedStats* acc) {
  int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i v = _mm512_loadu_si512(mask + w);
    if (_mm512_test_epi64_mask(v, v) == 0) continue;
    for (int64_t i = w; i < w + 8; ++i) {
      AccumulateWord(mask[i], i * 64, errors, acc);
    }
  }
  for (; w < words; ++w) AccumulateWord(mask[w], w * 64, errors, acc);
}

constexpr SimdKernels kAvx512Kernels = {
    SimdIsa::kAvx512,    AndInPlaceAvx512,       PopcountAvx512,
    AndPopcountAvx512,   IntersectColumnsAvx512, MaskedStatsAvx512,
};

#pragma GCC diagnostic pop

#endif  // SLICELINE_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels (aarch64; NEON is architecturally guaranteed there, so no
// cpuid probing — it is simply the best non-scalar level on arm builds).
// ---------------------------------------------------------------------------

#if defined(SLICELINE_SIMD_NEON)

void AndInPlaceNeon(uint64_t* dst, const uint64_t* src, int64_t words) {
  int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, vandq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
  }
  for (; w < words; ++w) dst[w] &= src[w];
}

int64_t PopcountNeon(const uint64_t* a, int64_t words) {
  int64_t total = 0;
  int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint8x16_t cnt =
        vcntq_u8(vreinterpretq_u8_u64(vld1q_u64(a + w)));
    total += vaddvq_u8(cnt);
  }
  for (; w < words; ++w) total += std::popcount(a[w]);
  return total;
}

int64_t AndPopcountNeon(const uint64_t* a, const uint64_t* b, int64_t words) {
  int64_t total = 0;
  int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t v = vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w));
    total += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
  }
  for (; w < words; ++w) total += std::popcount(a[w] & b[w]);
  return total;
}

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

void MaskedStatsNeon(const uint64_t* mask, int64_t words,
                     const double* errors, MaskedStats* acc) {
  int64_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t v = vld1q_u64(mask + w);
    if (vmaxvq_u32(vreinterpretq_u32_u64(v)) == 0) continue;
    AccumulateWord(mask[w], w * 64, errors, acc);
    AccumulateWord(mask[w + 1], (w + 1) * 64, errors, acc);
  }
  for (; w < words; ++w) AccumulateWord(mask[w], w * 64, errors, acc);
}

constexpr SimdKernels kNeonKernels = {
    SimdIsa::kNeon,    AndInPlaceNeon,       PopcountNeon,
    AndPopcountNeon,   IntersectColumnsNeon, MaskedStatsNeon,
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
      __builtin_cpu_supports("avx512bw")) {
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

void AccumulatePlaneStats(const SimdKernels& kernels, const uint64_t* mask,
                          int64_t mask_count, int64_t words,
                          const double* errors, const ErrorPlanes& planes,
                          int64_t first_word, uint64_t* scratch,
                          PlaneStats* acc) {
  if (mask_count == 0) return;
  SLICELINE_DCHECK(planes.count <= 62);
  acc->count += mask_count;
  // A plane costs a popcount per word, the float chain a branchy step per
  // set bit; the vector popcounts are ~16x cheaper than the scalar one.
  // Sparse masks therefore take the chain, whose sum and maximum are exact
  // multiples of the unit, so dividing by it recovers the same integers.
  const int64_t bit_weight = kernels.isa == SimdIsa::kScalar ? 1 : 16;
  if (mask_count * bit_weight < planes.count * words) {
    MaskedStats chain;
    kernels.masked_stats(mask, words, errors, &chain);
    acc->units += static_cast<int64_t>(chain.sum / planes.unit);
    acc->max_units = std::max(acc->max_units,
                              static_cast<int64_t>(chain.max / planes.unit));
    return;
  }
  // hit: planes with at least one row of the mask; the largest k in the
  // mask is at most hit's value.
  int64_t hit = 0;
  for (int32_t b = 0; b < planes.count; ++b) {
    const int64_t ones =
        kernels.and_popcount(mask, planes.planes[b] + first_word, words);
    acc->units += ones << b;
    if (ones != 0) hit |= int64_t{1} << b;
  }
  if (hit <= acc->max_units) return;
  // Top-down walk: `rows` keeps the mask rows whose k agrees with `best` on
  // every plane walked so far; a lower plane joins `best` iff one of them
  // has it. The intersection with the top plane is built lazily, so a
  // single-plane hit (0/1 errors) never touches the scratch.
  int b = std::bit_width(static_cast<uint64_t>(hit)) - 1;
  int64_t best = int64_t{1} << b;
  const uint64_t* top = planes.planes[b] + first_word;
  uint64_t* rows = nullptr;
  uint64_t* spare = scratch;
  for (--b; b >= 0; --b) {
    if ((hit >> b & 1) == 0) continue;
    const int64_t reachable = best | (hit & ((int64_t{2} << b) - 1));
    if (reachable <= acc->max_units) return;
    if (rows == nullptr) {
      const uint64_t* pair[2] = {mask, top};
      kernels.intersect_columns(pair, 2, spare, words);
      rows = spare;
      spare = scratch + words;
    }
    const uint64_t* pair[2] = {rows, planes.planes[b] + first_word};
    if (kernels.intersect_columns(pair, 2, spare, words) != 0) {
      best |= int64_t{1} << b;
      std::swap(rows, spare);
    }
  }
  acc->max_units = std::max(acc->max_units, best);
}

void EvaluateCandidatesBlocked(const SimdKernels& kernels,
                               const CandidateColumns* candidates,
                               int64_t count, int64_t words,
                               const double* errors,
                               const ErrorPlanes* planes, double* sizes,
                               double* error_sums, double* max_errors,
                               int64_t first_row) {
  // Tile shape: 2048 words (16 KiB per bitmap slice) keeps a candidate
  // tile's distinct column slices plus the intersection scratch inside L2;
  // sibling candidates share parent columns, so slices are reused across
  // the inner candidate loop instead of re-streamed from memory.
  constexpr int64_t kWordTile = 2048;
  constexpr int64_t kCandidateTile = 64;

  const int64_t first_word = first_row >> 6;
  if (count <= 0 || first_word >= words) return;
  // Rows [first_word * 64, first_row) of the first word are not ours.
  const uint64_t keep = ~uint64_t{0} << (first_row & 63);
  int32_t max_len = 1;
  for (int64_t c = 0; c < count; ++c) {
    max_len = std::max(max_len, candidates[c].len);
  }
  const size_t tile_words =
      static_cast<size_t>(std::min(words - first_word, kWordTile));
  // The intersection, then the plane walk's two buffers.
  std::vector<uint64_t> scratch(planes != nullptr ? 3 * tile_words
                                                  : tile_words);
  std::vector<const uint64_t*> shifted(static_cast<size_t>(max_len));
  // One running accumulator per candidate of the current tile, carried
  // across word tiles and seeded from the outputs. Without planes each
  // candidate sees ONE continuous ascending-row add sequence, continuing
  // the one that produced the outputs' values, bit-identical to an
  // unblocked scan (summing per-tile partial sums instead would round
  // differently once the row space spans tiles); plane counts are
  // integers, so their tile order does not matter.
  const size_t tile_candidates =
      static_cast<size_t>(std::min(count, kCandidateTile));
  std::vector<MaskedStats> acc(planes != nullptr ? 0 : tile_candidates);
  std::vector<PlaneStats> plane_acc(planes != nullptr ? tile_candidates : 0);

  for (int64_t c0 = 0; c0 < count; c0 += kCandidateTile) {
    const int64_t c1 = std::min(count, c0 + kCandidateTile);
    for (int64_t c = c0; c < c1; ++c) {
      if (planes != nullptr) {
        plane_acc[static_cast<size_t>(c - c0)] = PlaneStats{};
      } else {
        acc[static_cast<size_t>(c - c0)] = {static_cast<int64_t>(sizes[c]),
                                            error_sums[c], max_errors[c]};
      }
    }
    for (int64_t w0 = first_word; w0 < words; w0 += kWordTile) {
      const int64_t span = std::min(words - w0, kWordTile);
      const bool trim = w0 == first_word && keep != ~uint64_t{0};
      for (int64_t c = c0; c < c1; ++c) {
        const CandidateColumns& cand = candidates[c];
        SLICELINE_DCHECK(cand.len >= 1);
        const uint64_t* mask;
        int64_t ones = -1;  // popcount(mask), when already known
        if (cand.len == 1 && !trim) {
          mask = cand.cols[0] + w0;
        } else {
          for (int32_t k = 0; k < cand.len; ++k) {
            shifted[k] = cand.cols[k] + w0;
          }
          ones = kernels.intersect_columns(shifted.data(), cand.len,
                                           scratch.data(), span);
          if (trim) {
            ones -= std::popcount(scratch[0] & ~keep);
            scratch[0] &= keep;
          }
          if (ones == 0) continue;
          mask = scratch.data();
        }
        if (planes != nullptr) {
          if (ones < 0) ones = kernels.popcount(mask, span);
          AccumulatePlaneStats(kernels, mask, ones, span, errors + w0 * 64,
                               *planes, w0, scratch.data() + tile_words,
                               &plane_acc[static_cast<size_t>(c - c0)]);
        } else {
          kernels.masked_stats(mask, span, errors + w0 * 64,
                               &acc[static_cast<size_t>(c - c0)]);
        }
      }
    }
    for (int64_t c = c0; c < c1; ++c) {
      if (planes != nullptr) {
        // units < 2^53, so both conversions and the power-of-two scaling
        // are exact, and so is adding them to the (equally exact) seeds:
        // the same doubles the ascending chain produces.
        const PlaneStats& exact = plane_acc[static_cast<size_t>(c - c0)];
        sizes[c] += static_cast<double>(exact.count);
        error_sums[c] += static_cast<double>(exact.units) * planes->unit;
        max_errors[c] = std::max(
            max_errors[c], static_cast<double>(exact.max_units) * planes->unit);
      } else {
        const MaskedStats& chain = acc[static_cast<size_t>(c - c0)];
        sizes[c] = static_cast<double>(chain.count);
        error_sums[c] = chain.sum;
        max_errors[c] = chain.max;
      }
    }
  }
}

}  // namespace sliceline::linalg
