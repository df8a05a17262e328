#ifndef SLICELINE_TESTING_CHECKS_H_
#define SLICELINE_TESTING_CHECKS_H_

#include <cstdint>
#include <string>

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
};

/// Score comparisons tolerate this absolute difference (engines sum errors
/// in different orders).
inline constexpr double kScoreTolerance = 1e-9;

/// Oracle differential: RunSliceLine, RunSliceLineLA, and
/// RunSliceLineBestFirst against the exhaustive enumerator on the case's
/// dataset and config. Asserts identical top-K sizes, rank-wise score
/// equality within tolerance, and -- for every slice scoring strictly above
/// the K-th score (i.e. not in a boundary tie group) -- identical predicate
/// sets across engines. Returns "" on agreement, else a description of the
/// first divergence.
std::string CheckOracleDifferential(const FuzzCase& fuzz_case,
                                    InjectedBug inject = InjectedBug::kNone);

/// Kernel differential: draws random CSR matrices from `seed` and checks
/// every sparse kernel in linalg/kernels.h against its dense reference
/// (testing/reference_kernels.h), including CSR structural invariants of
/// matrix-valued outputs. Runs `rounds` independent matrix draws.
std::string CheckKernelDifferential(uint64_t seed, int rounds,
                                    InjectedBug inject = InjectedBug::kNone);

/// Metamorphic invariants on the case's dataset:
///  * reported stats match a brute-force row scan and Equation 1 rescoring;
///  * row-permutation invariance of the top-K;
///  * 2x row duplication with doubled sigma preserves all scores;
///  * the best score is non-decreasing in alpha.
std::string CheckMetamorphic(const FuzzCase& fuzz_case);

/// Determinism: identical results across repeated runs, thread-pool sizes
/// {1, 2, 8} (bit-identical for every strategy), distributed shard counts
/// {1, 3, 7} versus the local
/// engine, and fault-injected distributed runs versus fault-free ones
/// (bit-identical short of local fallback, with reproducible fault stats).
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

/// Governance robustness on the case's dataset: every engine is run
/// pre-cancelled, under a randomized simulated-time deadline, and under a
/// randomized memory budget. Each run must return gracefully (no error
/// status, no crash) with a structurally well-formed RunOutcome and a
/// sorted, finite top-K; an unconstrained governed run must match the
/// ungoverned top-K exactly.
std::string CheckGovernance(const FuzzCase& fuzz_case);

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTING_CHECKS_H_
