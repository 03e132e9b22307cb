#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace supa {
namespace {

TEST(MeanTest, Basics) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(SampleVarianceTest, KnownValues) {
  EXPECT_EQ(SampleVariance({}), 0.0);
  EXPECT_EQ(SampleVariance({3.0}), 0.0);
  // Var of {1,2,3} with n-1 = ((1)^2 + 0 + 1)/2 = 1.
  EXPECT_DOUBLE_EQ(SampleVariance({1.0, 2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(SampleStddev({1.0, 2.0, 3.0}), 1.0);
}

TEST(IncompleteBetaTest, BoundaryAndSymmetry) {
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.1, 0.3, 0.5, 0.7}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 5.0, x),
                1.0 - RegularizedIncompleteBeta(5.0, 2.0, 1.0 - x), 1e-10);
  }
  // I_x(1, 1) = x (uniform distribution).
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.42), 0.42, 1e-10);
}

TEST(StudentTCdfTest, SymmetryAndKnownQuantiles) {
  EXPECT_NEAR(StudentTCdf(0.0, 10.0), 0.5, 1e-10);
  for (double t : {0.5, 1.0, 2.0}) {
    EXPECT_NEAR(StudentTCdf(t, 7.0) + StudentTCdf(-t, 7.0), 1.0, 1e-10);
  }
  // t_{0.975, 10} ≈ 2.228.
  EXPECT_NEAR(StudentTCdf(2.228, 10.0), 0.975, 1e-3);
  // Large df approaches the normal: Φ(1.96) ≈ 0.975.
  EXPECT_NEAR(StudentTCdf(1.96, 1e6), 0.975, 1e-3);
}

TEST(WelchTTestTest, RequiresTwoSamplesEach) {
  EXPECT_FALSE(WelchTTest({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(WelchTTest({1.0, 2.0}, {}).ok());
}

TEST(WelchTTestTest, ClearlySeparatedSamples) {
  std::vector<double> a = {10.0, 10.1, 9.9, 10.05, 9.95};
  std::vector<double> b = {1.0, 1.1, 0.9, 1.05, 0.95};
  auto r = WelchTTest(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().t, 10.0);
  EXPECT_LT(r.value().p_greater, 0.01);  // significant improvement
  EXPECT_LT(r.value().p_two_sided, 0.01);
}

TEST(WelchTTestTest, IdenticalDistributionsNotSignificant) {
  Rng rng(5);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.Gaussian(0.0, 1.0));
    b.push_back(rng.Gaussian(0.0, 1.0));
  }
  auto r = WelchTTest(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().p_two_sided, 0.01);
}

TEST(WelchTTestTest, DirectionMatters) {
  std::vector<double> lo = {1.0, 1.2, 0.8, 1.1};
  std::vector<double> hi = {5.0, 5.2, 4.8, 5.1};
  auto r = WelchTTest(lo, hi);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().t, 0.0);
  EXPECT_GT(r.value().p_greater, 0.99);  // lo is NOT greater than hi
}

TEST(WelchTTestTest, ConstantSamplesHandled) {
  auto r = WelchTTest({2.0, 2.0, 2.0}, {2.0, 2.0, 2.0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().p_two_sided, 1.0);
  auto r2 = WelchTTest({3.0, 3.0, 3.0}, {2.0, 2.0, 2.0});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().p_greater, 0.0);
}

TEST(WelchTTestTest, MatchesReferenceImplementation) {
  // Hand-computed reference: a = [2.1, 2.5, 2.3, 2.7, 2.2],
  // b = [1.9, 2.0, 2.1, 1.8, 2.05] gives t = 3.23877, df = 5.88235
  // (Welch–Satterthwaite), two-sided p ≈ 0.018.
  std::vector<double> a = {2.1, 2.5, 2.3, 2.7, 2.2};
  std::vector<double> b = {1.9, 2.0, 2.1, 1.8, 2.05};
  auto r = WelchTTest(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().t, 3.23877, 0.001);
  EXPECT_NEAR(r.value().df, 5.88235, 0.001);
  EXPECT_NEAR(r.value().p_two_sided, 0.018, 0.004);
}

TEST(WelchTTestTest, UnequalSizesAndVariancesFixture) {
  // scipy.stats.ttest_ind(a, b, equal_var=False):
  // a = [12.1, 14.3, 13.8, 12.9, 15.0, 13.3, 14.1],
  // b = [10.2, 11.0, 10.7, 10.9] gives t = 7.26732, df = 8.26843,
  // two-sided p = 7.324e-05.
  std::vector<double> a = {12.1, 14.3, 13.8, 12.9, 15.0, 13.3, 14.1};
  std::vector<double> b = {10.2, 11.0, 10.7, 10.9};
  auto r = WelchTTest(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().t, 7.26732, 0.001);
  EXPECT_NEAR(r.value().df, 8.26843, 0.01);
  EXPECT_NEAR(r.value().p_two_sided, 7.324e-05, 1e-6);
  EXPECT_NEAR(r.value().p_greater, 3.662e-05, 1e-6);
}

TEST(WelchTTestTest, TenPercentRegressionAtSmallNoiseIsSignificant) {
  // Per-repeat edges/sec samples with ~1% noise: a 10% drop must be
  // significant at p < 0.05.
  std::vector<double> baseline = {1000.0, 1010.0, 990.0, 1005.0, 995.0};
  std::vector<double> regressed = {900.0, 909.0, 891.0, 904.5, 895.5};
  auto r = WelchTTest(baseline, regressed);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().p_greater, 0.05);
  EXPECT_LT(r.value().p_two_sided, 0.05);
}

}  // namespace
}  // namespace supa
