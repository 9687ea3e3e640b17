// The paper's game, U_i(S) = sum_c (k_{i,c}/k_c) * R(k_c), as the
// uniform-budget GameModel(config, rate).
#include "core/game_model.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;
using testing::power_law_game;

TEST(PaperGame, RejectsNullRateFunction) {
  EXPECT_THROW(GameModel(GameConfig(2, 3, 1), nullptr),
               std::invalid_argument);
}

TEST(PaperGame, RejectsIncompatibleMatrix) {
  const GameModel game = constant_game(2, 3, 1);
  const GameModel other = constant_game(2, 4, 1);
  const StrategyMatrix matrix = other.empty_strategy();
  EXPECT_THROW(game.utility(matrix, 0), std::invalid_argument);
  EXPECT_THROW(game.welfare(matrix), std::invalid_argument);
}

TEST(PaperGame, UtilityOfEmptyStrategyIsZero) {
  const GameModel game = constant_game(3, 4, 2);
  const StrategyMatrix matrix = game.empty_strategy();
  for (UserId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(game.utility(matrix, i), 0.0);
  }
  EXPECT_DOUBLE_EQ(game.welfare(matrix), 0.0);
}

TEST(PaperGame, SingleUserAloneGetsFullChannelRate) {
  const GameModel game = constant_game(2, 3, 2, 4.0);
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 1);
  EXPECT_DOUBLE_EQ(game.utility(matrix, 0), 4.0);
  EXPECT_DOUBLE_EQ(game.utility(matrix, 1), 0.0);
  EXPECT_DOUBLE_EQ(game.welfare(matrix), 4.0);
}

TEST(PaperGame, EqualSharingOnSharedChannel) {
  const GameModel game = constant_game(2, 3, 2, 6.0);
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 0);
  matrix.add_radio(1, 0);
  // Each holds 1 of 2 radios on a channel worth 6.0.
  EXPECT_DOUBLE_EQ(game.utility(matrix, 0), 3.0);
  EXPECT_DOUBLE_EQ(game.utility(matrix, 1), 3.0);
  // Two own radios double the share.
  matrix.add_radio(0, 0);
  EXPECT_DOUBLE_EQ(game.utility(matrix, 0), 4.0);
  EXPECT_DOUBLE_EQ(game.utility(matrix, 1), 2.0);
}

/// The paper's Figure 1/2 worked example under constant R = 1:
/// loads (4,3,2,3,1); U(u1) = 1/4+1/3+1/2+1/3, U(u2) = 1/4+1/3+1,
/// U(u3) = 1/4+2/3+1/3, U(u4) = 1/4+1/2.
TEST(PaperGame, Figure1UtilitiesMatchHandComputation) {
  const GameModel game = constant_game(4, 5, 4);
  const auto matrix = matrix_of(game, figure1_rows());
  EXPECT_EQ(matrix.channel_load(0), 4);
  EXPECT_EQ(matrix.channel_load(1), 3);
  EXPECT_EQ(matrix.channel_load(2), 2);
  EXPECT_EQ(matrix.channel_load(3), 3);
  EXPECT_EQ(matrix.channel_load(4), 1);
  EXPECT_NEAR(game.utility(matrix, 0), 0.25 + 1.0 / 3 + 0.5 + 1.0 / 3, 1e-12);
  EXPECT_NEAR(game.utility(matrix, 1), 0.25 + 1.0 / 3 + 1.0, 1e-12);
  EXPECT_NEAR(game.utility(matrix, 2), 0.25 + 2.0 / 3 + 1.0 / 3, 1e-12);
  EXPECT_NEAR(game.utility(matrix, 3), 0.25 + 0.5, 1e-12);
}

/// Identity: sum of user utilities == sum of R(k_c) over occupied channels.
TEST(PaperGame, WelfareEqualsSumOfChannelRates) {
  const GameModel game = power_law_game(4, 5, 4, 0.7);
  const auto matrix = matrix_of(game, figure1_rows());
  const auto utilities = game.utilities(matrix);
  const double total = std::accumulate(utilities.begin(), utilities.end(), 0.0);
  EXPECT_NEAR(total, game.welfare(matrix), 1e-12);

  double channel_sum = 0.0;
  for (ChannelId c = 0; c < 5; ++c) {
    channel_sum += game.rate(c, matrix.channel_load(c));
  }
  EXPECT_NEAR(total, channel_sum, 1e-12);
}

TEST(PaperGame, OptimalWelfareFormula) {
  // Conflict regime: every channel can hold one radio.
  EXPECT_DOUBLE_EQ(constant_game(4, 5, 4, 2.0).optimal_welfare(), 10.0);
  // No-conflict regime: only N*k radios exist.
  EXPECT_DOUBLE_EQ(constant_game(1, 5, 3, 2.0).optimal_welfare(), 6.0);
  // Decreasing R: optimum still spreads to one radio per channel.
  const GameModel decreasing = power_law_game(3, 4, 2, 1.0);
  EXPECT_DOUBLE_EQ(decreasing.optimal_welfare(), 4.0);
}

TEST(PaperGame, UtilitiesVectorMatchesPerUser) {
  const GameModel game = constant_game(4, 5, 4);
  const auto matrix = matrix_of(game, figure1_rows());
  const auto utilities = game.utilities(matrix);
  ASSERT_EQ(utilities.size(), 4u);
  for (UserId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(utilities[i], game.utility(matrix, i));
  }
}

TEST(PaperGame, RateFunctionAccessors) {
  const auto rate = std::make_shared<ConstantRate>(3.0);
  const GameModel game(GameConfig(2, 3, 1), rate);
  for (ChannelId c = 0; c < 3; ++c) {
    EXPECT_EQ(&game.rate_function(c), rate.get());
  }
  EXPECT_TRUE(game.uniform_rates());
}

}  // namespace
}  // namespace mrca
