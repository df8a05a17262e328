#ifndef SLICELINE_CORE_BOUNDS_H_
#define SLICELINE_CORE_BOUNDS_H_

#include <cstdint>

#include "core/scoring.h"

namespace sliceline::core {

/// Upper bounds inherited from a candidate's parents (Section 3.1): the
/// minimum parent size, minimum parent total error, and minimum parent
/// maximum-tuple-error.
struct ParentBounds {
  int64_t size_ub = 0;      ///< ceil(|S|) = min over parents of |S_p|
  double error_ub = 0.0;    ///< min over parents of se_p
  double max_error_ub = 0.0;///< min over parents of sm_p
  int parents = 0;          ///< np: number of enumerated (non-pruned) parents

  /// Accumulates another parent into the minima.
  void AddParent(int64_t size, double error_sum, double max_error) {
    if (parents == 0) {
      size_ub = size;
      error_ub = error_sum;
      max_error_ub = max_error;
    } else {
      if (size < size_ub) size_ub = size;
      if (error_sum < error_ub) error_ub = error_sum;
      if (max_error < max_error_ub) max_error_ub = max_error;
    }
    ++parents;
  }

  bool operator==(const ParentBounds&) const = default;
};

/// Upper bound on the score of any slice reachable below a candidate with
/// the given parent bounds (Equation 3). The bound maximizes the score over
/// slice sizes s in [sigma, size_ub] with the size-dependent error bound
/// se(s) = min(error_ub, s * max_error_ub). The maximum is attained at one
/// of the "interesting points" sigma, error_ub / max_error_ub, or size_ub;
/// all three are evaluated. Returns -infinity when the feasible interval is
/// empty (size_ub < sigma).
double UpperBoundScore(const ScoringContext& context, int64_t sigma,
                       const ParentBounds& bounds);

/// The score-pruning test of Equation 9: true exactly when
///   UpperBoundScore(context, sigma, bounds) > threshold  &&  ... >= 0.
/// It returns as soon as one interesting point clears both, without
/// evaluating the rest. The bound is the maximum of those points, and the
/// maximum clears `> threshold && >= 0` exactly when some point does, so the
/// decision is the same for every input.
bool UpperBoundClears(const ScoringContext& context, int64_t sigma,
                      const ParentBounds& bounds, double threshold);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_BOUNDS_H_
