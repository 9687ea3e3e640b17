#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mrca {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(4.2);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.2);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.2);
  EXPECT_DOUBLE_EQ(stats.max(), 4.2);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> values = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  RunningStats stats;
  for (const double v : values) stats.add(v);

  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size() - 1);

  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.25);
  EXPECT_NEAR(stats.sum(), mean * 6.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats left;
  RunningStats right;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 10.0;
    (i % 2 ? left : right).add(v);
    all.add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(TimeWeightedMean, PiecewiseConstantSignal) {
  TimeWeightedMean twm(0.0);
  twm.update(0.0, 2.0);   // value 2 from t=0
  twm.update(4.0, 6.0);   // value 6 from t=4
  // Mean over [0, 8]: (2*4 + 6*4) / 8 = 4.
  EXPECT_NEAR(twm.mean(8.0), 4.0, 1e-12);
}

TEST(TimeWeightedMean, CurrentValueExtends) {
  TimeWeightedMean twm(0.0);
  twm.update(0.0, 1.0);
  EXPECT_NEAR(twm.mean(10.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(twm.current(), 1.0);
}

TEST(TimeWeightedMean, NoElapsedTimeReturnsValue) {
  TimeWeightedMean twm(5.0);
  twm.update(5.0, 3.0);
  EXPECT_DOUBLE_EQ(twm.mean(5.0), 3.0);
}

TEST(JainFairness, PerfectFairness) {
  const std::vector<double> equal = {3.0, 3.0, 3.0, 3.0};
  EXPECT_NEAR(jain_fairness(equal), 1.0, 1e-12);
}

TEST(JainFairness, WorstCaseSingleUser) {
  const std::vector<double> skewed = {10.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(jain_fairness(skewed), 0.25, 1e-12);  // 1/n
}

TEST(JainFairness, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(zeros), 1.0);
}

TEST(JainFairness, KnownIntermediateValue) {
  const std::vector<double> values = {1.0, 2.0};
  // (3)^2 / (2 * 5) = 0.9
  EXPECT_NEAR(jain_fairness(values), 0.9, 1e-12);
}

}  // namespace
}  // namespace mrca
