// Unit tests for util/stats.h: Welford accumulation, percentiles, Jain's
// index, tail views, and slope fitting.
#include "util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc {
namespace {

TEST(RunningStats, EmptyIsWellDefined) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, NumericallyStableNearLargeOffset) {
  // A naive sum-of-squares accumulator catastrophically cancels here.
  RunningStats s;
  const double offset = 1e9;
  for (double x : {offset + 1.0, offset + 2.0, offset + 3.0}) s.add(x);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0;
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(MeanOf, HandlesEmptyAndValues) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 2.0);
}

TEST(MinMaxOf, Work) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(MinOf, EmptyViolatesContract) {
  EXPECT_THROW((void)min_of({}), ContractViolation);
}

TEST(Percentile, ExactOrderStatistics) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
  // Interpolated point.
  EXPECT_DOUBLE_EQ(percentile(xs, 62.5), 35.0);
}

TEST(Percentile, OutOfRangeViolatesContract) {
  EXPECT_THROW((void)percentile({1.0}, 101.0), ContractViolation);
  EXPECT_THROW((void)percentile({}, 50.0), ContractViolation);
}

TEST(Percentile, BoundariesAreExactMinAndMax) {
  // p=0 / p=100 must return the extremes without interpolation-rank
  // rounding; a single sample is its own every-percentile.
  const std::vector<double> xs{-4.0, 1.0, 8.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), -4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 8.0);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 50.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 100.0), 7.5);
}

TEST(PercentileSorted, SkipsTheSortAndMatchesPercentile) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 62.5), percentile(sorted, 62.5));
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 100.0), 50.0);
  EXPECT_THROW((void)percentile_sorted({}, 50.0), ContractViolation);
}

TEST(MedianOf, OddEvenAndEmpty) {
  EXPECT_TRUE(std::isnan(median_of({})));
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(median_of(one), 7.0);
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median_of(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median_of(even), 2.5);
}

TEST(MadOf, MeasuresSpreadAroundTheMedian) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  // Median 3, absolute deviations {2,1,0,1,2} -> MAD 1.
  EXPECT_DOUBLE_EQ(mad_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(mad_of(xs, 3.0), 1.0);
  EXPECT_TRUE(std::isnan(mad_of({})));
  const std::vector<double> flat{4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(mad_of(flat), 0.0);
}

TEST(MadOf, IgnoresASingleOutlier) {
  // One wild value must not inflate the MAD the way it inflates stddev.
  const std::vector<double> xs{2.0, 2.0, 2.0, 2.0, 1000.0};
  EXPECT_DOUBLE_EQ(median_of(xs), 2.0);
  EXPECT_DOUBLE_EQ(mad_of(xs), 0.0);
}

TEST(JainIndex, EqualSharesGiveOne) {
  const std::vector<double> xs{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(xs), 1.0);
}

TEST(JainIndex, SingleDominatorGivesOneOverN) {
  const std::vector<double> xs{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(xs), 0.25);
}

TEST(JainIndex, EdgeCases) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(TailView, SkipsTransientPrefix) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const auto tail = tail_view(xs, 0.5);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail[0], 3.0);
  EXPECT_DOUBLE_EQ(tail[1], 4.0);
}

TEST(TailView, ZeroFractionKeepsAll) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_EQ(tail_view(xs, 0.0).size(), 2u);
}

TEST(TailView, InvalidFractionViolatesContract) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)tail_view(xs, 1.0), ContractViolation);
  EXPECT_THROW((void)tail_view(xs, -0.1), ContractViolation);
}

TEST(LinearSlope, RecoverExactLine) {
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) ys.push_back(3.0 * i + 7.0);
  EXPECT_NEAR(linear_slope(ys), 3.0, 1e-12);
}

TEST(LinearSlope, ConstantAndShortSeries) {
  EXPECT_DOUBLE_EQ(linear_slope(std::vector<double>{5.0, 5.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(linear_slope(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(linear_slope({}), 0.0);
}

}  // namespace
}  // namespace axiomcc
