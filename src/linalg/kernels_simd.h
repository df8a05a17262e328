#ifndef SLICELINE_LINALG_KERNELS_SIMD_H_
#define SLICELINE_LINALG_KERNELS_SIMD_H_

#include <cstdint>
#include <string>
#include <vector>

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

/// Masked reduction output: count/sum/max of the error vector over the set
/// rows of a mask. `sum` accumulates in ascending row order (the same order
/// at every ISA level), which is what keeps top-K results bit-identical
/// across ISA levels and tilings on errors that are not exactly summable.
/// `max` is 0 when the mask is empty (errors are >= 0).
struct MaskedStats {
  int64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
};

/// Error bit-planes of an exactly summable error vector (built by
/// data::ColumnStore): errors[r] == unit * k_r, where bit b of the
/// non-negative integer k_r is bit r of planes[b], in the bitmap word
/// layout. The store guarantees that the k_r of all rows sum to less than
/// 2^53, so every partial error sum, in any order, is exact; the plane
/// statistics below are therefore bit-identical to the ascending chain.
struct ErrorPlanes {
  const uint64_t* const* planes = nullptr;
  int32_t count = 0;
  double unit = 1.0;
};

/// Exact masked statistics in units of ErrorPlanes::unit: the row count,
/// the sum of k over the rows, and their maximum k (0 when empty).
struct PlaneStats {
  int64_t count = 0;
  int64_t units = 0;
  int64_t max_units = 0;
};

/// One evaluation candidate: the packed column bitmaps of its predicates.
/// A row belongs to the slice iff it is set in all `len` bitmaps — the
/// bit-packed form of the paper's |X·S^T| == level membership test.
struct CandidateColumns {
  const uint64_t* const* cols = nullptr;
  int32_t len = 0;
};

/// Kernel table of one ISA level. Every entry is bit-exact against the
/// kScalar table on identical inputs: counts are integer popcounts, word
/// outputs are identical bit patterns, and masked sums add in ascending row
/// order at every level (the vector units accelerate the AND/popcount and
/// zero-word skipping, never the float accumulation order). The ascending
/// order is what pins results for errors without ErrorPlanes; with planes
/// the error sums are integer popcounts too.
struct SimdKernels {
  SimdIsa isa;
  /// dst[w] &= src[w] for w in [0, words).
  void (*and_inplace)(uint64_t* dst, const uint64_t* src, int64_t words);
  /// Total set bits of a[0..words).
  int64_t (*popcount)(const uint64_t* a, int64_t words);
  /// Total set bits of a & b without materializing the intersection — the
  /// candidate-count kernel (|X·S^T| == level membership via word-AND +
  /// popcount) for pair candidates.
  int64_t (*and_popcount)(const uint64_t* a, const uint64_t* b,
                          int64_t words);
  /// dst = cols[0] & ... & cols[len-1]; returns popcount(dst). len >= 1;
  /// len == 1 copies. The general candidate-count kernel.
  int64_t (*intersect_columns)(const uint64_t* const* cols, int32_t len,
                               uint64_t* dst, int64_t words);
  /// Accumulates count/sum/max of errors[r] over set rows r of mask into
  /// *acc, in ascending row order. errors must cover [0, words*64); bits are
  /// only read where set, so zero padding words never touch out-of-range
  /// errors. Accumulating into a caller-held running MaskedStats (instead of
  /// returning a fresh one) is what lets the cache-blocked candidate loop
  /// keep ONE continuous add sequence per candidate across word tiles and
  /// across calls (EvaluateCandidatesBlocked seeds it from its outputs) —
  /// sum-of-tile-sums rounds differently, an extended accumulation does not.
  /// This ordering matters only for errors without ErrorPlanes; on exactly
  /// summable errors every order gives the same sum, and the evaluation
  /// loop uses AccumulatePlaneStats instead.
  void (*masked_stats)(const uint64_t* mask, int64_t words,
                       const double* errors, MaskedStats* acc);
};

/// Kernel table of a specific level; `isa` must be in AvailableIsas().
const SimdKernels& KernelsFor(SimdIsa isa);

/// Kernel table of SelectedIsa().
const SimdKernels& ActiveKernels();

/// Folds the rows of `mask` into *acc using the error planes: count +=
/// mask_count, units += sum over planes b of 2^b * popcount(mask & P_b),
/// max_units = max(max_units, largest k in the mask), the latter by a
/// top-down plane walk that stops once it cannot beat acc->max_units. A
/// mask too sparse to pay for a popcount per plane word instead runs
/// masked_stats over `errors` (which then covers the mask's rows) and
/// divides by the unit, exactly. `mask` covers row words
/// [first_word, first_word + words) of the planes and `mask_count` must
/// equal its popcount; `scratch` holds 2 * words words. Integer sums, so
/// the result does not depend on how the row space is cut.
void AccumulatePlaneStats(const SimdKernels& kernels, const uint64_t* mask,
                          int64_t mask_count, int64_t words,
                          const double* errors, const ErrorPlanes& planes,
                          int64_t first_word, uint64_t* scratch,
                          PlaneStats* acc);

/// Evaluates `count` candidates over rows [first_row, 64 * words) with the
/// given kernel table, continuing the statistics already in
/// sizes/error_sums/max_errors: words below first_row's word are skipped
/// and the rows of that word below first_row are masked out. This is the
/// one loop every evaluation schedule runs (core::SliceEvaluator): kBitset
/// calls it over all rows with zeroed outputs, task-parallel over
/// candidates; kScanBlock calls it per fixed row tile with zeroed partials
/// and merges them in tile order; the streaming finder continues cached
/// statistics from their row prefix. The loop is cache-blocked:
/// candidates x row-words are tiled so the bitmap slices of a candidate
/// tile stay resident in L2 while its candidates intersect them, instead
/// of streaming every full-length bitmap once per candidate. With `planes`
/// (non-null) the statistics are exact integer plane counts
/// (AccumulatePlaneStats) scaled by planes->unit once per candidate and
/// added to the outputs, which must then be exact on the same grid (zeros
/// are); without, every candidate's errors extend the sum in the output in
/// one ascending-row chain carried across row tiles. Either way a call over
/// [0, r) followed by one over [r, n) is bit-identical to one unblocked
/// ascending scan over [0, n).
void EvaluateCandidatesBlocked(const SimdKernels& kernels,
                               const CandidateColumns* candidates,
                               int64_t count, int64_t words,
                               const double* errors,
                               const ErrorPlanes* planes, double* sizes,
                               double* error_sums, double* max_errors,
                               int64_t first_row = 0);

}  // namespace sliceline::linalg

#endif  // SLICELINE_LINALG_KERNELS_SIMD_H_
