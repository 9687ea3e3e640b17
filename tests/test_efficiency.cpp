#include "core/analysis/efficiency.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/alloc/sequential.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::matrix_of;
using testing::power_law_game;

TEST(NashLoadProfile, BalancedDivision) {
  // T = 4*4 = 16 radios over 6 channels: 4 channels of 3, 2 of 2.
  const auto loads = nash_load_profile(GameConfig(4, 6, 4));
  ASSERT_EQ(loads.size(), 6u);
  int threes = 0;
  int twos = 0;
  for (const RadioCount load : loads) {
    if (load == 3) ++threes;
    if (load == 2) ++twos;
  }
  EXPECT_EQ(threes, 4);
  EXPECT_EQ(twos, 2);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), 0), 16);
}

TEST(NashLoadProfile, ExactDivision) {
  const auto loads = nash_load_profile(GameConfig(3, 3, 2));
  for (const RadioCount load : loads) EXPECT_EQ(load, 2);
}

TEST(NashLoadProfile, NoConflictRegime) {
  // T = 2 radios over 4 channels: loads (1,1,0,0).
  const auto loads = nash_load_profile(GameConfig(2, 4, 1));
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), 0), 2);
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), 1);
}

TEST(NashWelfare, MatchesAlgorithm1Outcome) {
  // The closed-form NE welfare must equal the welfare of an actual NE
  // produced by Algorithm 1 — for both constant and decreasing R.
  for (const GameModel& game :
       {constant_game(5, 4, 3), power_law_game(5, 4, 3, 0.8),
        power_law_game(3, 6, 4, 1.5)}) {
    const StrategyMatrix ne = sequential_allocation(game);
    EXPECT_NEAR(nash_welfare(game), game.welfare(ne), 1e-12)
        << game.config().describe();
  }
}

TEST(PriceOfAnarchy, OneForConstantRateConflictRegime) {
  EXPECT_NEAR(price_of_anarchy(constant_game(4, 6, 4)), 1.0, 1e-12);
  EXPECT_NEAR(price_of_anarchy(constant_game(7, 6, 4)), 1.0, 1e-12);
}

TEST(PriceOfAnarchy, ExceedsOneForDecreasingRate) {
  const GameModel game = power_law_game(4, 6, 4, 1.0);  // R(k)=1/k
  // NE loads (3,3,3,3,2,2): welfare 4/3 + 1 = 7/3; optimum 6.
  EXPECT_NEAR(price_of_anarchy(game), 6.0 / (7.0 / 3.0), 1e-12);
  EXPECT_GT(price_of_anarchy(game), 1.0);
}

TEST(PriceOfAnarchy, GrowsWithCongestion) {
  const double low = price_of_anarchy(power_law_game(2, 6, 4, 1.0));
  const double high = price_of_anarchy(power_law_game(12, 6, 4, 1.0));
  EXPECT_GT(high, low);
}

TEST(LoadImbalance, MeasuresDelta) {
  const GameModel game = constant_game(2, 3, 2);
  // loads (2,0,0) -> delta 2; (2,2,0) -> 2; (2,1,1) -> 1; (1,1,2) -> 1.
  EXPECT_EQ(load_imbalance(matrix_of(game, {{2, 0, 0}, {0, 0, 0}})), 2);
  EXPECT_EQ(load_imbalance(matrix_of(game, {{1, 1, 0}, {1, 1, 0}})), 2);
  EXPECT_EQ(load_imbalance(matrix_of(game, {{2, 0, 0}, {0, 1, 1}})), 1);
  EXPECT_EQ(load_imbalance(matrix_of(game, {{1, 0, 1}, {0, 1, 1}})), 1);
}

TEST(UtilityFairness, PerfectAtSymmetricNash) {
  const GameModel game = constant_game(3, 3, 2);
  // Every user spreads over 2 channels of load 2: identical utilities.
  const auto matrix = matrix_of(game, {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}});
  EXPECT_NEAR(utility_fairness(game, matrix), 1.0, 1e-12);
}

TEST(UtilityFairness, DropsForSkewedAllocation) {
  const GameModel game = constant_game(2, 2, 2);
  const auto skewed = matrix_of(game, {{1, 1}, {0, 0}});  // u2 silent
  EXPECT_NEAR(utility_fairness(game, skewed), 0.5, 1e-12);
}

TEST(WelfareEfficiency, FractionOfOptimum) {
  const GameModel game = constant_game(3, 2, 2);
  const auto balanced = matrix_of(game, {{1, 1}, {1, 1}, {1, 1}});
  EXPECT_NEAR(welfare_efficiency(game, balanced), 1.0, 1e-12);
  const auto wasteful = matrix_of(game, {{2, 0}, {2, 0}, {2, 0}});
  EXPECT_NEAR(welfare_efficiency(game, wasteful), 0.5, 1e-12);
}

}  // namespace
}  // namespace mrca
