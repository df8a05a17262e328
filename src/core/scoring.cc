#include "core/scoring.h"

#include "common/logging.h"

namespace sliceline::core {

ScoringContext::ScoringContext(int64_t n, double total_error, double alpha)
    : n_(n),
      total_error_(total_error),
      average_error_(n > 0 ? total_error / static_cast<double>(n) : 0.0),
      alpha_(alpha) {
  SLICELINE_CHECK_GT(n, 0);
  SLICELINE_CHECK(alpha > 0.0 && alpha <= 1.0)
      << "alpha must be in (0, 1], got " << alpha;
  SLICELINE_CHECK_GE(total_error, 0.0);
}

double ScoringContext::Score(int64_t size, double error_sum) const {
  if (size <= 0) return kMinusInfinity;
  if (average_error_ <= 0.0) return kMinusInfinity;  // perfect model
  const double nd = static_cast<double>(n_);
  const double sd = static_cast<double>(size);
  const double avg_slice_error = error_sum / sd;
  return alpha_ * (avg_slice_error / average_error_ - 1.0) -
         (1.0 - alpha_) * (nd / sd - 1.0);
}

}  // namespace sliceline::core
