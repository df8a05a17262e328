#ifndef SLICELINE_CORE_SCORING_H_
#define SLICELINE_CORE_SCORING_H_

#include <cstdint>
#include <limits>

namespace sliceline::core {

/// Evaluates the paper's scoring function (Equation 1)
///
///   sc = alpha * ((se / |S|) / e_bar - 1) - (1 - alpha) * (n / |S| - 1)
///
/// for a fixed dataset (n rows, average error e_bar) and weight alpha.
class ScoringContext {
 public:
  ScoringContext(int64_t n, double total_error, double alpha);

  int64_t n() const { return n_; }
  double total_error() const { return total_error_; }
  double average_error() const { return average_error_; }
  double alpha() const { return alpha_; }

  /// Score of a slice with `size` rows and total error `error_sum`. Empty
  /// slices score -infinity (the paper treats them as "assumed negative").
  double Score(int64_t size, double error_sum) const;

  static constexpr double kMinusInfinity =
      -std::numeric_limits<double>::infinity();

 private:
  int64_t n_;
  double total_error_;
  double average_error_;
  double alpha_;
};

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_SCORING_H_
