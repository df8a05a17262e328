#ifndef SLICELINE_CORE_GOVERNANCE_H_
#define SLICELINE_CORE_GOVERNANCE_H_

#include <cstdint>

#include "common/run_context.h"
#include "core/slice.h"

namespace sliceline::core {

/// Per-run driver of the governance policy shared by the enumeration
/// engines. Wraps the (optional) RunContext from SliceLineConfig and owns
/// the degradation ladder that is climbed on soft memory pressure:
///
///   step 1    raise the effective sigma (x2) used for pruning -- fewer
///             candidates survive size filtering at every later level;
///   step 2    cap the number of candidates evaluated per level, keeping
///             the best by upper-bound score;
///   step 3    cap the maximum enumeration level just above the current one;
///   step 4+   keep doubling the effective sigma.
///
/// The effective sigma tightens only *pruning*; top-K admission keeps the
/// run's original sigma so reported slices stay comparable to an ungoverned
/// run. Hard limits (deadline, cancellation, hard memory cap) are polled via
/// CheckBoundary(); a non-kNone answer means "package best-so-far results
/// now". All methods are no-ops when the config carries no RunContext.
class GovernanceController {
 public:
  GovernanceController(const SliceLineConfig& config, int64_t base_sigma,
                       int base_max_level);

  /// Polls cancellation / deadline / hard memory limit.
  StopReason CheckBoundary() const;

  const RunContext* run_context() const { return ctx_; }

  /// Climbs one ladder step if the budget is over its soft limit; call at
  /// level boundaries. Returns true when a step was taken.
  bool MaybeDegrade(int current_level);

  /// Sigma to use for candidate *pruning* (>= the base sigma).
  int64_t effective_sigma() const { return effective_sigma_; }
  /// Per-level candidate cap; 0 = uncapped.
  int64_t candidate_cap() const { return candidate_cap_; }
  int effective_max_level() const { return effective_max_level_; }

  /// Records `dropped` candidates removed by the degradation cap.
  void RecordCapped(int64_t dropped) { candidates_capped_ += dropped; }

  /// Re-installs degradation state carried in a checkpoint.
  void RestoreDegradation(int steps, int64_t effective_sigma,
                          int64_t candidates_capped);

  int degradation_steps() const { return degradation_steps_; }
  int64_t candidates_capped() const { return candidates_capped_; }

  /// Builds the run's outcome record. `stopped_at_level` is the level the
  /// run was inside (or about to start) when `reason` fired; ignored for
  /// kNone.
  RunOutcome Finish(StopReason reason, int stopped_at_level,
                    bool resumed_from_checkpoint) const;

 private:
  RunContext* ctx_;
  int64_t k_;  // wide: the candidate cap multiplies it by 8
  int64_t base_sigma_;
  int64_t effective_sigma_;
  int base_max_level_;
  int effective_max_level_;
  int64_t candidate_cap_ = 0;
  int degradation_steps_ = 0;
  int64_t candidates_capped_ = 0;
};

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_GOVERNANCE_H_
