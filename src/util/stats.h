// Summary statistics and Welch's t-test, behind the significance stars
// (p < 0.01) reported in Tables V and VI (bench/link_prediction_grid.h).

#ifndef SUPA_UTIL_STATS_H_
#define SUPA_UTIL_STATS_H_

#include <vector>

#include "util/status.h"

namespace supa {

/// Sample mean.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance (n - 1 denominator); 0 for n < 2.
double SampleVariance(const std::vector<double>& xs);

/// Sample standard deviation.
double SampleStddev(const std::vector<double>& xs);

/// Result of a two-sample Welch t-test.
struct TTestResult {
  double t = 0.0;
  /// Welch–Satterthwaite degrees of freedom.
  double df = 0.0;
  /// Two-sided p-value.
  double p_two_sided = 0.0;
  /// One-sided p-value for mean(a) > mean(b).
  double p_greater = 0.0;
};

/// Welch's unequal-variance t-test between samples `a` and `b`. Requires at
/// least two observations per sample.
Result<TTestResult> WelchTTest(const std::vector<double>& a,
                               const std::vector<double>& b);

/// CDF of Student's t distribution with `df` degrees of freedom
/// (via the regularized incomplete beta function).
double StudentTCdf(double t, double df);

/// Regularized incomplete beta function I_x(a, b), continued-fraction
/// evaluation (Lentz's algorithm).
double RegularizedIncompleteBeta(double a, double b, double x);

}  // namespace supa

#endif  // SUPA_UTIL_STATS_H_
