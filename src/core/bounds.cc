#include "core/bounds.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sliceline::core {

namespace {

/// Score upper bound at a specific hypothetical size s, using the
/// size-dependent error bound se(s) = min(error_ub, s * max_error_ub).
double BoundAt(const ScoringContext& context, const ParentBounds& bounds,
               double s) {
  if (s <= 0.0) return ScoringContext::kMinusInfinity;
  const double se = std::min(bounds.error_ub, s * bounds.max_error_ub);
  const double nd = static_cast<double>(context.n());
  const double avg = context.average_error();
  if (avg <= 0.0) return ScoringContext::kMinusInfinity;
  return context.alpha() * ((se / s) / avg - 1.0) -
         (1.0 - context.alpha()) * (nd / s - 1.0);
}

/// Calls visit(bound) at each interesting point of Equation 3, in a fixed
/// order, until visit returns true; returns whether it did. There is no
/// point without parents or when the feasible interval is empty
/// (size_ub < sigma).
template <typename Visit>
bool VisitPoints(const ScoringContext& context, int64_t sigma,
                 const ParentBounds& bounds, const Visit& visit) {
  SLICELINE_DCHECK(sigma >= 1);
  if (bounds.parents == 0) return false;
  const double lo = static_cast<double>(sigma);
  const double hi = static_cast<double>(bounds.size_ub);
  if (hi < lo) return false;
  if (bounds.error_ub <= 0.0) {
    // No error mass can reach any child; only the size term remains, which
    // is maximized at the largest feasible size.
    return visit(BoundAt(context, bounds, hi));
  }
  // The bound is piecewise monotone in s with a knee where the two error
  // bounds cross (se_ub == s * sm_ub); evaluate the interval endpoints and
  // the knee (clamped into [lo, hi], rounded both ways for safety).
  if (visit(BoundAt(context, bounds, lo)) ||
      visit(BoundAt(context, bounds, hi))) {
    return true;
  }
  if (bounds.max_error_ub > 0.0) {
    const double knee = bounds.error_ub / bounds.max_error_ub;
    for (double s : {std::floor(knee), std::ceil(knee)}) {
      if (visit(BoundAt(context, bounds, std::clamp(s, lo, hi)))) return true;
    }
  }
  return false;
}

}  // namespace

double UpperBoundScore(const ScoringContext& context, int64_t sigma,
                       const ParentBounds& bounds) {
  double best = ScoringContext::kMinusInfinity;
  VisitPoints(context, sigma, bounds, [&](double ub) {
    best = std::max(best, ub);
    return false;
  });
  return best;
}

bool UpperBoundClears(const ScoringContext& context, int64_t sigma,
                      const ParentBounds& bounds, double threshold) {
  return VisitPoints(context, sigma, bounds, [&](double ub) {
    return ub > threshold && ub >= 0.0;
  });
}

}  // namespace sliceline::core
