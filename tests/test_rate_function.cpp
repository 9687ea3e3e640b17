#include "core/rate_function.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace mrca {
namespace {

TEST(ConstantRate, IsConstantForPositiveK) {
  ConstantRate rate(5.5);
  EXPECT_DOUBLE_EQ(rate.rate(0), 0.0);
  for (int k = 1; k <= 100; ++k) {
    EXPECT_DOUBLE_EQ(rate.rate(k), 5.5);
  }
}

TEST(ConstantRate, RejectsNonPositive) {
  EXPECT_THROW(ConstantRate(0.0), std::invalid_argument);
  EXPECT_THROW(ConstantRate(-1.0), std::invalid_argument);
}

TEST(ConstantRate, PerRadioIsEqualShare) {
  ConstantRate rate(6.0);
  EXPECT_DOUBLE_EQ(rate.per_radio(0), 0.0);
  EXPECT_DOUBLE_EQ(rate.per_radio(1), 6.0);
  EXPECT_DOUBLE_EQ(rate.per_radio(3), 2.0);
}

TEST(GeometricDecayRate, DecaysGeometrically) {
  GeometricDecayRate rate(8.0, 0.5);
  EXPECT_DOUBLE_EQ(rate.rate(1), 8.0);
  EXPECT_DOUBLE_EQ(rate.rate(2), 4.0);
  EXPECT_DOUBLE_EQ(rate.rate(3), 2.0);
  EXPECT_DOUBLE_EQ(rate.rate(0), 0.0);
}

TEST(GeometricDecayRate, DecayOneIsConstant) {
  GeometricDecayRate rate(3.0, 1.0);
  EXPECT_DOUBLE_EQ(rate.rate(1), 3.0);
  EXPECT_DOUBLE_EQ(rate.rate(10), 3.0);
}

TEST(GeometricDecayRate, RejectsBadParameters) {
  EXPECT_THROW(GeometricDecayRate(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(GeometricDecayRate(1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(GeometricDecayRate(0.0, 0.5), std::invalid_argument);
}

TEST(PowerLawRate, MatchesFormula) {
  PowerLawRate rate(10.0, 1.0);
  EXPECT_DOUBLE_EQ(rate.rate(1), 10.0);
  EXPECT_DOUBLE_EQ(rate.rate(2), 5.0);
  EXPECT_DOUBLE_EQ(rate.rate(4), 2.5);
}

TEST(PowerLawRate, AlphaZeroIsConstant) {
  PowerLawRate rate(7.0, 0.0);
  EXPECT_DOUBLE_EQ(rate.rate(1), 7.0);
  EXPECT_DOUBLE_EQ(rate.rate(50), 7.0);
}

TEST(PowerLawRate, RejectsNegativeAlpha) {
  EXPECT_THROW(PowerLawRate(1.0, -0.1), std::invalid_argument);
}

TEST(LinearDecayRate, ClampsAtZero) {
  LinearDecayRate rate(3.0, 1.0);
  EXPECT_DOUBLE_EQ(rate.rate(1), 3.0);
  EXPECT_DOUBLE_EQ(rate.rate(2), 2.0);
  EXPECT_DOUBLE_EQ(rate.rate(4), 0.0);
  EXPECT_DOUBLE_EQ(rate.rate(100), 0.0);
}

TEST(TabulatedRate, LookupAndExtension) {
  TabulatedRate rate({4.0, 3.0, 2.5}, "test");
  EXPECT_DOUBLE_EQ(rate.rate(0), 0.0);
  EXPECT_DOUBLE_EQ(rate.rate(1), 4.0);
  EXPECT_DOUBLE_EQ(rate.rate(3), 2.5);
  EXPECT_DOUBLE_EQ(rate.rate(10), 2.5);  // extends last entry
  EXPECT_EQ(rate.table_size(), 3);
  EXPECT_EQ(rate.name(), "test");
}

TEST(TabulatedRate, RejectsEmptyAndNegative) {
  EXPECT_THROW(TabulatedRate({}, "empty"), std::invalid_argument);
  EXPECT_THROW(TabulatedRate({1.0, -0.5}, "neg"), std::invalid_argument);
}

TEST(TabulatedRate, RejectsIncreaseBeyondTolerance) {
  EXPECT_THROW(TabulatedRate({1.0, 2.0}, "up"), std::invalid_argument);
  EXPECT_NO_THROW(TabulatedRate({1.0, 1.05}, "noisy", 0.1));
}

TEST(TabulatedRate, MonotonizesWithinTolerance) {
  // Noise within tolerance is clamped to the running minimum.
  TabulatedRate rate({1.0, 0.9, 0.95, 0.85}, "noisy", 0.1);
  EXPECT_DOUBLE_EQ(rate.rate(2), 0.9);
  EXPECT_DOUBLE_EQ(rate.rate(3), 0.9);  // 0.95 clamped down
  EXPECT_DOUBLE_EQ(rate.rate(4), 0.85);
  EXPECT_NO_THROW(rate.validate_non_increasing(10));
}

TEST(ValidateNonIncreasing, AcceptsAllFamilies) {
  EXPECT_NO_THROW(ConstantRate(1.0).validate_non_increasing(50));
  EXPECT_NO_THROW(GeometricDecayRate(1.0, 0.9).validate_non_increasing(50));
  EXPECT_NO_THROW(PowerLawRate(1.0, 2.0).validate_non_increasing(50));
  EXPECT_NO_THROW(LinearDecayRate(1.0, 0.1).validate_non_increasing(50));
}

namespace {
/// Deliberately broken rate function for contract tests.
class IncreasingRate final : public RateFunction {
 public:
  double rate(int k) const override { return static_cast<double>(k); }
  std::string name() const override { return "increasing"; }
};
class NonZeroAtZeroRate final : public RateFunction {
 public:
  double rate(int) const override { return 1.0; }
  std::string name() const override { return "r0"; }
};
}  // namespace

TEST(ValidateNonIncreasing, RejectsIncreasingFunction) {
  EXPECT_THROW(IncreasingRate().validate_non_increasing(5), std::domain_error);
}

TEST(ValidateNonIncreasing, RejectsNonZeroAtZero) {
  EXPECT_THROW(NonZeroAtZeroRate().validate_non_increasing(5),
               std::domain_error);
}

TEST(Factories, MakeHelpers) {
  const auto tdma = make_tdma_rate(2.0);
  EXPECT_DOUBLE_EQ(tdma->rate(7), 2.0);
}

TEST(Names, AreDistinctAndInformative) {
  EXPECT_NE(ConstantRate(1.0).name(), PowerLawRate(1.0, 1.0).name());
  EXPECT_NE(GeometricDecayRate(1.0, 0.5).name(),
            LinearDecayRate(1.0, 0.5).name());
}

/// Per-radio rate R(k)/k must be strictly decreasing for any non-increasing
/// R with R(k) > 0 — the monotonicity fact every equilibrium proof in the
/// paper leans on.
class PerRadioStrictDecrease
    : public ::testing::TestWithParam<std::shared_ptr<const RateFunction>> {};

TEST_P(PerRadioStrictDecrease, Holds) {
  const auto& rate = *GetParam();
  for (int k = 1; k < 30; ++k) {
    if (rate.rate(k + 1) <= 0.0) break;
    EXPECT_GT(rate.per_radio(k), rate.per_radio(k + 1))
        << rate.name() << " at k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, PerRadioStrictDecrease,
    ::testing::Values(std::make_shared<ConstantRate>(1.0),
                      std::make_shared<GeometricDecayRate>(1.0, 0.8),
                      std::make_shared<PowerLawRate>(1.0, 0.5),
                      std::make_shared<LinearDecayRate>(1.0, 0.02),
                      std::make_shared<TabulatedRate>(
                          std::vector<double>{5.0, 4.0, 3.5, 3.2, 3.0},
                          "table")));

}  // namespace
}  // namespace mrca
