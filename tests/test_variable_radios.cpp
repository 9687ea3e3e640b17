// Users with DIFFERENT radio counts (paper §2 relaxation): a budget vector
// (k_1, ..., k_N), each k_i <= |C|, on GameModel's per-user budget axis.
// The load-balancing structure survives: the sequential allocator keeps
// loads within one radio of each other and its output remains a Nash
// equilibrium, while utilities scale with the radio budgets.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/analysis/nash.h"
#include "core/game_model.h"

namespace mrca {
namespace {

std::shared_ptr<const RateFunction> unit_rate() {
  return std::make_shared<ConstantRate>(1.0);
}

TEST(VariableRadios, ValidatesConstruction) {
  EXPECT_THROW(GameModel(3, {}, {unit_rate()}), std::invalid_argument);
  EXPECT_THROW(GameModel(3, {2, -1}, {unit_rate()}),
               std::invalid_argument);
  EXPECT_THROW(GameModel(3, {4, 1}, {unit_rate()}),
               std::invalid_argument);  // k_i > |C|
  EXPECT_THROW(GameModel(3, {0, 0}, {unit_rate()}),
               std::invalid_argument);  // nobody has radios
  EXPECT_NO_THROW(GameModel(3, {0, 2, 3}, {unit_rate()}));
}

TEST(VariableRadios, BudgetAccessors) {
  const GameModel game(4, {1, 3, 2}, {unit_rate()});
  EXPECT_EQ(game.num_users(), 3u);
  EXPECT_EQ(game.num_channels(), 4u);
  EXPECT_EQ(game.budget(0), 1);
  EXPECT_EQ(game.budget(1), 3);
  EXPECT_EQ(game.total_radios(), 6);
  EXPECT_THROW(game.budget(3), std::out_of_range);
}

TEST(VariableRadios, ValidateEnforcesPerUserBudgets) {
  const GameModel game(3, {1, 2}, {unit_rate()});
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 0);
  EXPECT_NO_THROW(game.validate(matrix));
  // User 0's budget is 1, but the base matrix cap is max budget = 2:
  // the model must catch the overshoot the raw matrix allows.
  matrix.add_radio(0, 1);
  EXPECT_THROW(game.validate(matrix), std::invalid_argument);
  EXPECT_THROW(game.utility(matrix, 0), std::invalid_argument);
}

TEST(VariableRadios, UniformBudgetsReduceToPaperGame) {
  const GameModel variable(4, {2, 2, 2}, {unit_rate()});
  const GameModel uniform(GameConfig(3, 4, 2), unit_rate());
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(uniform, rng);
    for (UserId i = 0; i < 3; ++i) {
      ASSERT_DOUBLE_EQ(variable.utility(matrix, i), uniform.utility(matrix, i));
      ASSERT_NEAR(variable.best_response(matrix, i).utility,
                  uniform.best_response(matrix, i).utility, 1e-12);
    }
    ASSERT_EQ(variable.is_nash_equilibrium(matrix),
              uniform.is_nash_equilibrium(matrix));
  }
}

TEST(VariableRadios, BestResponseRespectsOwnBudget) {
  const GameModel game(4, {1, 4}, {unit_rate()});
  const StrategyMatrix empty = game.empty_strategy();
  const BestResponse small = game.best_response(empty, 0);
  RadioCount deployed = 0;
  for (const RadioCount x : small.strategy) deployed += x;
  EXPECT_EQ(deployed, 1);
  const BestResponse large = game.best_response(empty, 1);
  deployed = 0;
  for (const RadioCount x : large.strategy) deployed += x;
  EXPECT_EQ(deployed, 4);
}

TEST(VariableRadios, SequentialAllocationIsBalancedAndStable) {
  for (const std::vector<RadioCount>& budgets :
       {std::vector<RadioCount>{1, 2, 3},
        {4, 1, 1, 1},
        {2, 2, 1, 3, 4},
        {1, 1, 1, 1, 1, 1, 1},
        {0, 3, 2}}) {
    const GameModel game(4, budgets, {unit_rate()});
    const StrategyMatrix ne = sequential_allocation(game);
    // Every user deploys exactly their budget.
    for (UserId i = 0; i < budgets.size(); ++i) {
      EXPECT_EQ(ne.user_total(i), budgets[i]);
    }
    EXPECT_LE(ne.max_load() - ne.min_load(), 1);
    EXPECT_TRUE(game.is_nash_equilibrium(ne));
  }
}

TEST(VariableRadios, SequentialStableForDecreasingRates) {
  const GameModel game(4, {3, 1, 2, 4},
                       {std::make_shared<PowerLawRate>(1.0, 1.0)});
  const StrategyMatrix ne = sequential_allocation(game);
  EXPECT_LE(ne.max_load() - ne.min_load(), 1);
  EXPECT_TRUE(game.is_nash_equilibrium(ne));
}

TEST(VariableRadios, UtilityScalesWithBudgetAtEquilibrium) {
  // Constant R: each deployed radio on a load-L channel earns R/L; with
  // balanced loads a 4-radio router earns ~4x a 1-radio client.
  const GameModel game(4, {1, 4, 1, 4, 1, 4}, {unit_rate()});
  const StrategyMatrix ne = sequential_allocation(game);
  const auto utilities = game.utilities(ne);
  const double client = (utilities[0] + utilities[2] + utilities[4]) / 3.0;
  const double router = (utilities[1] + utilities[3] + utilities[5]) / 3.0;
  EXPECT_NEAR(router / client, 4.0, 0.8);
}

TEST(VariableRadios, WelfareIdentityAndOptimum) {
  const GameModel game(3, {2, 1, 3}, {unit_rate()});
  const StrategyMatrix ne = sequential_allocation(game);
  const auto utilities = game.utilities(ne);
  EXPECT_NEAR(std::accumulate(utilities.begin(), utilities.end(), 0.0),
              game.welfare(ne), 1e-12);
  EXPECT_DOUBLE_EQ(game.optimal_welfare(), 3.0);  // min(3, 6) * 1.0
  // Conflict regime, constant R: NE is system-optimal (Theorem 2 carries
  // over to heterogeneous budgets).
  EXPECT_NEAR(game.welfare(ne), game.optimal_welfare(), 1e-12);
}

TEST(VariableRadios, DynamicsConvergeFromScrambledStarts) {
  const GameModel game(4, {1, 2, 3, 4}, {unit_rate()});
  Rng rng(654);
  for (int trial = 0; trial < 20; ++trial) {
    // Random start respecting budgets: each user scatters their own radios.
    StrategyMatrix start = game.empty_strategy();
    for (UserId i = 0; i < game.num_users(); ++i) {
      for (RadioCount j = 0; j < game.budget(i); ++j) {
        start.add_radio(i, rng.index(game.num_channels()));
      }
    }
    const auto outcome = run_response_dynamics(game, start);
    ASSERT_TRUE(outcome.converged);
    EXPECT_TRUE(game.is_nash_equilibrium(outcome.final_state));
    EXPECT_LE(outcome.final_state.max_load() -
                  outcome.final_state.min_load(),
              1);
  }
}

TEST(VariableRadios, ZeroBudgetUserStaysSilent) {
  const GameModel game(3, {0, 2}, {unit_rate()});
  const StrategyMatrix ne = sequential_allocation(game);
  EXPECT_EQ(ne.user_total(0), 0);
  EXPECT_DOUBLE_EQ(game.utility(ne, 0), 0.0);
  EXPECT_TRUE(game.is_nash_equilibrium(ne));
}

}  // namespace
}  // namespace mrca
