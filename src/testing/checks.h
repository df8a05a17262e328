#ifndef SLICELINE_TESTING_CHECKS_H_
#define SLICELINE_TESTING_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/exhaustive.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "testing/random_dataset.h"

namespace sliceline::testing {

/// Deliberate defects the harness can inject into the system under test.
/// Used to validate the harness itself: an injected bug must be caught,
/// shrunk, and written to a replay file within a bounded number of cases.
enum class InjectedBug {
  kNone = 0,
  /// The native engine's scores are recomputed with an off-by-one average
  /// error (e-bar over n-1 rows) before comparison against the oracle.
  kScoring,
  /// ColSums drops the first stored entry of every non-empty row before
  /// comparison against the dense reference.
  kKernel,
  /// Every native top-K error sum moves up one ulp (std::nextafter) and its
  /// slice is rescored before comparison against the oracle.
  kErrorSumUlp,
};

/// Engine checks compare the slices scoring above this floor, bit for bit,
/// and drop the rest. Every engine sums errors exactly, so a score is the
/// same double everywhere; but a slice whose exact score is 0 (e.g. every
/// slice of the uniform-errors profile) scores a few ulps of either sign,
/// the sign depending on the slice's size, and admission (score > 0) and the
/// float score bounds then turn on that rounding: the oracle may admit such
/// slices that a pruning engine never evaluates, and the other way round.
/// Real scores sit far above the floor.
inline constexpr double kScoreFloor = 1e-9;

/// A named engine entry point, so one scenario loop covers several engines.
struct Engine {
  const char* name;
  StatusOr<core::SliceLineResult> (*run)(const data::IntMatrix&,
                                         const std::vector<double>&,
                                         const core::SliceLineConfig&);
};

/// The engines every governance scenario runs: the two level-wise engines
/// and the exhaustive oracle (CheckGovernance and the governance unit tests).
inline constexpr Engine kGovernanceEngines[] = {
    {"native", core::RunSliceLine},
    {"la", core::RunSliceLineLA},
    {"exhaustive", core::RunExhaustive},
};

/// Oracle differential: RunSliceLine and RunSliceLineLA against the
/// exhaustive enumerator on the case's dataset and config. Over the slices
/// scoring above kScoreFloor, asserts identical top-K sizes, rank-wise
/// bit-identical scores, and -- for every slice scoring strictly above the
/// K-th score (i.e. not in a boundary tie group) -- identical predicate sets
/// across engines. Returns "" on agreement, else a description of the first
/// divergence.
std::string CheckOracleDifferential(const FuzzCase& fuzz_case,
                                    InjectedBug inject = InjectedBug::kNone);

/// Kernel differential: draws random CSR matrices from `seed` and checks
/// every sparse kernel in linalg/kernels.h against its dense reference
/// (testing/reference_kernels.h), including CSR structural invariants of
/// matrix-valued outputs. Runs `rounds` independent matrix draws.
std::string CheckKernelDifferential(uint64_t seed, int rounds,
                                    InjectedBug inject = InjectedBug::kNone);

/// Metamorphic invariants on the case's dataset, all compared with ==:
///  * reported stats match a brute-force row scan (an exact sum) and
///    Equation 1 rescoring;
///  * row-permutation invariance of the top-K;
///  * 2x row duplication with doubled sigma preserves all scores (doubling
///    every sum and count is exact);
///  * the best score is non-decreasing in alpha, once it clears
///    kScoreFloor.
std::string CheckMetamorphic(const FuzzCase& fuzz_case);

/// Determinism, bit-identical throughout: repeated runs, thread-pool sizes
/// {1, 2, 8}, distributed shard counts {1, 3, 7} versus the local engine,
/// and fault-injected distributed runs (local fallback included) versus
/// fault-free ones, with reproducible fault stats.
std::string CheckDeterminism(const FuzzCase& fuzz_case);

/// SIMD differential: every bit-packed evaluation kernel
/// (linalg/kernels_simd.h) at every ISA level available on this host against
/// the always-compiled scalar reference — seeded random bitmaps (word-tail
/// row counts, all-zero and full columns) through each kernel, then the
/// case's dataset end to end: RunSliceLine on the kBitset strategy under
/// each forced ISA must return a top-K bit-identical to the scalar-forced
/// run (scores, error sums, max errors, predicates).
std::string CheckSimdDifferential(const FuzzCase& fuzz_case);

/// Stream equivalence: the case's dataset split into a base plus a seeded
/// append sequence, run through the incremental StreamingSliceFinder with
/// finds interleaved between appends, must be bit-identical (top-K
/// predicates, scores, error sums, max errors, and level accounting) to a
/// one-shot run on the concatenated data — at every prefix, for every
/// available ISA, over two cut draws per ISA. A repeat find without an
/// append must answer fully from cache.
std::string CheckStreamEquivalence(const FuzzCase& fuzz_case);

/// Governance robustness on the case's dataset: each of kGovernanceEngines is
/// run pre-cancelled, under a randomized simulated-time deadline, and under
/// a randomized memory budget. Each run must return gracefully (no error
/// status, no crash) with a structurally well-formed RunOutcome and a
/// sorted, finite top-K; an unconstrained governed run must match the
/// ungoverned top-K exactly.
std::string CheckGovernance(const FuzzCase& fuzz_case);

/// Checkpoint resume on the case's dataset, for the native and LA engines:
/// a run interrupted by a simulated-time deadline drawn from the case seed,
/// checkpointing under $TMPDIR, then resumed from its checkpoint, must be
/// bit-identical (CompareIdentical) to an uninterrupted run, and must
/// resume whenever the interrupted run left a checkpoint.
std::string CheckResume(const FuzzCase& fuzz_case);

/// "[profile=... seed=... n=... m=... k=... alpha=... sigma=...]": the
/// prefix of every check's diagnostic.
std::string DescribeCase(const FuzzCase& fuzz_case);

/// Two runs that must agree exactly: the same slices in the same order with
/// bit-identical statistics, and the same level accounting. Returns "" on
/// agreement.
std::string CompareIdentical(const core::SliceLineResult& want,
                             const core::SliceLineResult& got,
                             const std::string& label);

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTING_CHECKS_H_
