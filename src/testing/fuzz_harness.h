#ifndef SLICELINE_TESTING_FUZZ_HARNESS_H_
#define SLICELINE_TESTING_FUZZ_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/checks.h"
#include "testing/random_dataset.h"
#include "testing/replay.h"

namespace sliceline::testing {

/// Names of the seven checks, in execution order.
inline constexpr const char* kCheckNames[] = {
    "oracle",     "kernel",       "metamorphic",        "determinism",
    "governance", "kernels-simd", "stream-equivalence", "resume"};

struct FuzzOptions {
  uint64_t seed = 1;
  int cases = 100;
  /// Subset of kCheckNames to run; empty = all of them.
  std::vector<std::string> checks;
  InjectedBug inject = InjectedBug::kNone;
  /// Directory replay files are written to; empty disables replay output.
  std::string replay_dir = ".";
  bool shrink = true;
  /// Stop after this many failures (the shrinker dominates failure cost).
  int max_failures = 1;
  /// Independent matrix draws per kernel-check case.
  int kernel_rounds = 2;
  /// Run the (expensive, thread-pool-swapping) determinism check on every
  /// determinism_stride-th case only.
  int determinism_stride = 8;
  RandomDatasetOptions dataset;
  bool verbose = false;
};

struct FuzzFailure {
  std::string check;
  uint64_t case_index = 0;
  std::string failure;       ///< diagnostic of the (shrunk) case
  std::string replay_path;   ///< "" if replay writing was disabled or failed
  int shrink_steps = 0;
  FuzzCase fuzz_case;        ///< the shrunk reproduction
};

struct FuzzReport {
  int cases_run = 0;
  int64_t checks_run = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Runs `cases` generated cases through the selected checks. Profiles cycle
/// deterministically so every pathological generator shape is exercised even
/// in small batches. On a failure the case is shrunk (dataset checks) and a
/// replay file is written to `replay_dir`.
FuzzReport RunFuzz(const FuzzOptions& options);

/// Re-executes the check recorded in a replay file on its stored dataset.
/// Returns "" if the case now passes, else the current failure diagnostic.
std::string RunReplay(const ReplayRecord& record,
                      InjectedBug inject = InjectedBug::kNone);

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTING_FUZZ_HARNESS_H_
