// Energy-aware utilities (paper §2 future work): an energy price per
// deployed radio, U_i(S) = sum_c (k_{i,c}/k_c) * R(k_c) - cost * k_i, on
// GameModel's radio-cost axis. A positive cost breaks Lemma 1 (users park
// radios once the marginal rate falls below the price), makes deployment a
// decreasing function of cost, and keeps load balancing among the radios
// that stay on air.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/analysis/nash.h"
#include "core/game_model.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;

/// The paper's constant-rate game with a per-radio energy price.
GameModel priced(const GameModel& base, double cost) {
  return GameModel(base.config(), std::make_shared<ConstantRate>(1.0), cost);
}

/// Total deployed radios at the dynamics fixed point reached from the
/// empty allocation — the equilibrium deployment level for the price.
RadioCount equilibrium_deployment(const GameModel& game) {
  const DynamicsResult outcome =
      run_response_dynamics(game, game.empty_strategy());
  if (!outcome.converged) {
    throw std::runtime_error("dynamics did not converge from the empty state");
  }
  return outcome.final_state.total_deployed();
}

TEST(EnergyAware, RejectsNegativeCost) {
  EXPECT_THROW(priced(constant_game(2, 3, 2), -0.1), std::invalid_argument);
}

TEST(EnergyAware, ZeroCostReducesToPaperGame) {
  const GameModel base = constant_game(4, 4, 2);
  const GameModel game = priced(base, 0.0);
  Rng rng(808);
  for (int trial = 0; trial < 100; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(base, rng);
    for (UserId i = 0; i < 4; ++i) {
      ASSERT_DOUBLE_EQ(game.utility(matrix, i), base.utility(matrix, i));
    }
    ASSERT_EQ(game.is_nash_equilibrium(matrix),
              base.is_nash_equilibrium(matrix));
  }
}

TEST(EnergyAware, UtilitySubtractsDeploymentCost) {
  const GameModel base = constant_game(2, 3, 2);
  const GameModel game = priced(base, 0.25);
  auto matrix = base.empty_strategy();
  matrix.add_radio(0, 0);
  matrix.add_radio(0, 1);
  EXPECT_NEAR(game.utility(matrix, 0), 2.0 - 0.5, 1e-12);
  EXPECT_NEAR(game.utility(matrix, 1), 0.0, 1e-12);
  EXPECT_NEAR(game.welfare(matrix), 2.0 - 0.5, 1e-12);
}

TEST(EnergyAware, BestResponseMatchesEnumeration) {
  const GameModel base = constant_game(3, 4, 3);
  Rng rng(909);
  const auto all_rows = enumerate_strategy_rows(base.config());
  for (const double cost : {0.0, 0.1, 0.4, 0.9}) {
    const GameModel game = priced(base, cost);
    for (int trial = 0; trial < 30; ++trial) {
      const StrategyMatrix matrix = random_partial_allocation(base, rng);
      for (UserId i = 0; i < 3; ++i) {
        const BestResponse dp = game.best_response(matrix, i);
        double best = -1e300;
        for (const auto& row : all_rows) {
          StrategyMatrix changed = matrix;
          changed.set_row(i, row);
          best = std::max(best, game.utility(changed, i));
        }
        ASSERT_NEAR(dp.utility, best, 1e-10)
            << "cost " << cost << " state " << matrix.key();
      }
    }
  }
}

TEST(EnergyAware, Lemma1SurvivesSmallCosts) {
  // A tiny energy price does not change behavior: the marginal rate of a
  // deployed radio on the least-loaded channel still beats the price, so
  // equilibria deploy everything (Lemma 1 is robust).
  const GameModel base = constant_game(3, 4, 2);
  const GameModel game = priced(base, 0.05);
  const auto outcome = run_response_dynamics(game, base.empty_strategy());
  ASSERT_TRUE(outcome.converged);
  EXPECT_TRUE(outcome.final_state.all_radios_deployed());
  EXPECT_TRUE(game.is_nash_equilibrium(outcome.final_state));
}

TEST(EnergyAware, HighCostShutsRadiosDown) {
  // Price above the best attainable per-radio rate: deploying anything is
  // a net loss; the empty allocation is the unique equilibrium behavior.
  const GameModel base = constant_game(3, 3, 2);
  const GameModel game = priced(base, 1.5);  // R(1) = 1 < 1.5
  EXPECT_EQ(equilibrium_deployment(game), 0);
  EXPECT_TRUE(game.is_nash_equilibrium(base.empty_strategy()));
}

TEST(EnergyAware, Lemma1BreaksAtIntermediateCost) {
  // The qualitative finding: there is a cost band where users deploy SOME
  // but not ALL radios — the paper's Lemma 1 is a zero-cost artifact.
  // N=3, k=2, C=3, constant R=1: full deployment (6 radios over 3
  // channels) earns each marginal radio 1/2..1/3; cost 0.6 kills those
  // marginal radios but keeps one radio per user profitable.
  const GameModel base = constant_game(3, 3, 2);
  const GameModel game = priced(base, 0.6);
  const RadioCount deployed = equilibrium_deployment(game);
  EXPECT_GT(deployed, 0);
  EXPECT_LT(deployed, base.config().total_radios());
}

TEST(EnergyAware, DeploymentMonotoneInCost) {
  const GameModel base = constant_game(4, 4, 3);
  RadioCount previous = base.config().total_radios() + 1;
  for (const double cost : {0.0, 0.2, 0.35, 0.6, 0.9, 1.2}) {
    const GameModel game = priced(base, cost);
    const RadioCount deployed = equilibrium_deployment(game);
    EXPECT_LE(deployed, previous) << "cost " << cost;
    previous = deployed;
  }
  EXPECT_EQ(previous, 0);  // the most expensive case shuts everything off
}

TEST(EnergyAware, DeployedRadiosStillLoadBalance) {
  // Among the radios that remain on air, the load-balancing structure of
  // the paper survives.
  const GameModel base = constant_game(4, 4, 3);
  const GameModel game = priced(base, 0.3);
  const auto outcome = run_response_dynamics(game, base.empty_strategy());
  ASSERT_TRUE(outcome.converged);
  const auto& ne = outcome.final_state;
  EXPECT_TRUE(game.is_nash_equilibrium(ne));
  if (ne.total_deployed() >= static_cast<RadioCount>(ne.num_channels())) {
    EXPECT_LE(ne.max_load() - ne.min_load(), 1);
  }
}

TEST(EnergyAware, ConvergesFromRandomStarts) {
  const GameModel base = constant_game(5, 4, 2);
  Rng rng(7117);
  for (const double cost : {0.1, 0.45, 0.8}) {
    const GameModel game = priced(base, cost);
    for (int trial = 0; trial < 10; ++trial) {
      const StrategyMatrix start = random_full_allocation(base, rng);
      const auto outcome = run_response_dynamics(game, start);
      ASSERT_TRUE(outcome.converged);
      EXPECT_TRUE(game.is_nash_equilibrium(outcome.final_state));
    }
  }
}

}  // namespace
}  // namespace mrca
