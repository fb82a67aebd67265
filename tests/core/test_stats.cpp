#include <gtest/gtest.h>

#include "core/stats.h"

namespace bismark {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStatsTest, MergeEqualsCombined) {
  RunningStats a, b, combined;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    (i % 2 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(QuantileTest, MedianAndInterpolation) {
  const std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(Median(odd), 2.0);
  const std::vector<double> even = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Median(even), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(even, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(even, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(even, 0.25), 1.75);  // R-7 definition
}

TEST(QuantileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(Quantile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(Quantile(one, 0.99), 42.0);
}

TEST(QuantileTest, ClampsOutOfRangeQ) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.5), 3.0);
}

TEST(MeanSumTest, Basics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(CorrelationTest, PerfectAndInverse) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  const std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(Correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(Correlation(x, z), -1.0, 1e-12);
}

TEST(CorrelationTest, ConstantSideIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(Correlation(x, c), 0.0);
  EXPECT_DOUBLE_EQ(Correlation(x, {}), 0.0);
}

}  // namespace
}  // namespace bismark
