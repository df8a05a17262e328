#ifndef SLICELINE_LINALG_KERNELS_SIMD_H_
#define SLICELINE_LINALG_KERNELS_SIMD_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/exact_sum.h"

namespace sliceline::linalg {

/// Runtime-dispatched ISA levels of the bit-packed evaluation kernels, in
/// ascending preference. kScalar (portable std::popcount) is always
/// compiled and is the differential reference for every other level; the
/// x86 levels are compiled with per-function target attributes and selected
/// by cpuid at startup; kNeon is the aarch64 build's vector path.
enum class SimdIsa {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Lower-case ISA name ("scalar", "neon", "avx2", "avx512"); stable — it is
/// recorded in RunReport JSON and matched against SLICELINE_FORCE_ISA.
const char* IsaName(SimdIsa isa);

/// Parses an IsaName; returns false on an unknown name.
bool ParseIsaName(const std::string& name, SimdIsa* out);

/// ISAs usable on this host in ascending preference; always starts with
/// kScalar. The differential test rig iterates this to prove every compiled
/// path bit-identical to the scalar reference.
const std::vector<SimdIsa>& AvailableIsas();

/// The ISA the dispatched kernels run at: the forced ISA if ForceIsa was
/// called, else the SLICELINE_FORCE_ISA environment override (when it names
/// an ISA this host supports; unknown or unsupported values fall back to
/// the detected best with a warning), else the best available level.
SimdIsa SelectedIsa();
const char* SelectedIsaName();

/// Overrides dispatch for tests, benchmarks, and the CI ISA matrix. An ISA
/// this host cannot execute is clamped to kScalar. ClearForcedIsa restores
/// environment/auto selection.
void ForceIsa(SimdIsa isa);
void ClearForcedIsa();

/// Error bit-planes of a vector whose errors span at most a few bits
/// (built by data::ColumnStore): errors[r] == k_r * 2^low for non-negative
/// integers k_r, where bit b of k_r is bit r of planes[b], in the bitmap word
/// layout. Plane statistics are integer popcounts, exact in any order.
struct ErrorPlanes {
  const uint64_t* const* planes = nullptr;
  int32_t count = 0;
  int32_t low = 0;
};

/// The error side of an evaluation: the values (covering every padded row
/// word), the layout of their exact sums, and the error planes when the
/// store keeps them (nullptr otherwise).
struct ErrorSource {
  const double* values = nullptr;
  SumLayout layout;
  const ErrorPlanes* planes = nullptr;
};

/// One evaluation candidate: the packed column bitmaps of its predicates.
/// A row belongs to the slice iff it is set in all `len` bitmaps — the
/// bit-packed form of the paper's |X·S^T| == level membership test.
struct CandidateColumns {
  const uint64_t* const* cols = nullptr;
  int32_t len = 0;
};

/// The listed one-hot columns of one feature that fill_words builds: column
/// k holds code values[k] (distinct codes, each at least 1) and its packed
/// bitmap is dst[k]. slot[code - 1] is k for each listed code and `count`
/// for every other code of the feature's domain: the scatter's lookup.
struct FillColumns {
  const int32_t* values = nullptr;
  const int32_t* slot = nullptr;
  int32_t count = 0;
  uint64_t* const* dst = nullptr;
};

/// Kernel table of one ISA level. Every entry is bit-exact against the
/// kScalar table on identical inputs: counts are integer popcounts, word
/// outputs are identical bit patterns, and masked sums are exact integers
/// (linalg/exact_sum.h), which no order of adds can change.
struct SimdKernels {
  SimdIsa isa;
  /// counts[j] = popcount(x & masks[j]) over [0, words) for j < count, in
  /// one pass that loads each word of x once per four masks and stores
  /// nothing. The only counting kernel (|X·S^T| == level membership via
  /// word-AND + popcount): a sibling's rows (x its last column, masks[0] its
  /// run's shared prefix) and their counts in each error plane at once, a
  /// lone candidate's plane counts, and with x as its own one mask
  /// (x & x = x) the rows of one column.
  void (*fused_and_popcount)(const uint64_t* x, const uint64_t* const* masks,
                             int32_t count, int64_t words, int64_t* counts);
  /// dst = cols[0] & ... & cols[len-1]; returns popcount(dst). len >= 1;
  /// len == 1 copies. For rows that are kept, not only counted: a run's
  /// prefix and its ANDs with the error planes, the rows masked_sum reads,
  /// and the plane walk's rows.
  int64_t (*intersect_columns)(const uint64_t* const* cols, int32_t len,
                               uint64_t* dst, int64_t words);
  /// The exact masked kernel: adds errors[r] for every set row r of mask to
  /// `lanes`, an accumulator of `layout`, and raises *max_bits to the
  /// largest such error's bit pattern (non-negative doubles order like their
  /// patterns). errors must cover [0, words*64); bits are only read where
  /// set, so zero padding words never touch out-of-range errors.
  void (*masked_sum)(const uint64_t* mask, int64_t words, const double* errors,
                     const SumLayout& layout, uint64_t* lanes,
                     uint64_t* max_bits);
  /// The one-hot X of Algorithm 1 line 2, one feature at a time: writes
  /// words [first_word, first_word + ceil(rows / 64)) of every bitmap of
  /// `columns` from `rows` rows of the feature, where codes[i * stride] is
  /// the code of row 64 * first_word + i. Bit i % 64 of a word is set iff
  /// that row holds the column's code; bits past `rows` are zero. Reads no
  /// code past `rows`. The scalar level ORs one bit per code into a word
  /// buffer; the vector levels compare each word's 64 codes, packed to
  /// bytes, with each listed code (codes of 255 and up saturate, so a
  /// feature listing such a code takes the scalar path). A sweep of 1 to
  /// 254 listed columns found the compares cheaper at every width
  /// (EXPERIMENTS.md, "Compare-built bitmaps"), so the width never picks
  /// the scalar path.
  void (*fill_words)(const int32_t* codes, int64_t stride, int64_t rows,
                     const FillColumns& columns, int64_t first_word);
};

/// Kernel table of a specific level; `isa` must be in AvailableIsas().
const SimdKernels& KernelsFor(SimdIsa isa);

/// Kernel table of SelectedIsa().
const SimdKernels& ActiveKernels();

/// Whether candidate b continues a sibling run that candidate a is in: both
/// have one length L >= 2 and the same first L - 1 columns, compared by
/// identity (bitmap pointers or one-hot column indices). The prefix join
/// emits each parent's children as such a run.
template <typename Column>
bool ContinuesRun(const Column* a, int64_t a_len, const Column* b,
                  int64_t b_len) {
  return a_len == b_len && a_len >= 2 && std::equal(a, a + a_len - 1, b);
}

/// Row words per tile of EvaluateCandidatesBlocked: 16 KiB per bitmap
/// slice, so a run's prefix, its plane intersections and the sibling
/// columns of one tile stay inside L2. Schedules that poll between calls cut
/// the rows into slabs of this many words.
inline constexpr int64_t kEvaluateWordTile = 2048;

/// Evaluates `count` candidates over rows [first_row, 64 * words) with the
/// given kernel table and adds their statistics to the outputs: sizes[c]
/// gains the rows, the accumulator lanes[c * layout.lanes, ...) of
/// errors.layout gains their exact error sum, and max_bits[c] rises to the
/// bit pattern of their largest error. Words below first_row's word are
/// skipped and the rows of that word below first_row are masked out. This
/// is the one loop every evaluation schedule runs (core::SliceEvaluator).
/// The loop walks the rows in tiles of kEvaluateWordTile words, each over
/// every candidate. Consecutive candidates of one length L >= 2 that share
/// their first L - 1 columns (the siblings the prefix join emits together)
/// form a run: per tile the run ANDs that prefix once, and once with each
/// error plane, and each sibling then counts its rows and their planes in
/// one fused_and_popcount over its last column. A lone candidate intersects
/// all its columns. With error planes, dense rows count their error sums by
/// popcount over the planes and sparse ones run masked_sum; both are
/// integers. So any cut of the rows into calls, in any order, adds up to
/// the same outputs.
void EvaluateCandidatesBlocked(const SimdKernels& kernels,
                               const CandidateColumns* candidates,
                               int64_t count, int64_t words,
                               const ErrorSource& errors, int64_t* sizes,
                               uint64_t* lanes, uint64_t* max_bits,
                               int64_t first_row = 0);

}  // namespace sliceline::linalg

#endif  // SLICELINE_LINALG_KERNELS_SIMD_H_
