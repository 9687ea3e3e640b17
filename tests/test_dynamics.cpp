#include "core/alloc/best_response.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/nash.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::power_law_game;

TEST(Dynamics, AlreadyStableStateConvergesImmediately) {
  const GameModel game = constant_game(3, 3, 1);
  const auto matrix = StrategyMatrix::from_rows(
      game.config(), {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  const DynamicsResult result = run_response_dynamics(game, matrix);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.improving_steps, 0u);
  EXPECT_EQ(result.activations, 3u);  // one quiet pass
  EXPECT_TRUE(result.final_state == matrix);
}

TEST(Dynamics, RandomOrderRequiresRng) {
  const GameModel game = constant_game(2, 2, 1);
  DynamicsOptions options;
  options.order = ActivationOrder::kUniformRandom;
  EXPECT_THROW(run_response_dynamics(game, game.empty_strategy(), options),
               std::invalid_argument);
}

TEST(Dynamics, ConvergedBestResponseStateIsNash) {
  const GameModel game = constant_game(5, 4, 2);
  Rng rng(808);
  for (int trial = 0; trial < 30; ++trial) {
    const StrategyMatrix start = random_full_allocation(game, rng);
    const DynamicsResult result = run_response_dynamics(game, start);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(is_nash_equilibrium(game, result.final_state))
        << result.final_state.key();
  }
}

TEST(Dynamics, ConvergedSingleMoveStateIsStable) {
  const GameModel game = constant_game(5, 4, 2);
  DynamicsOptions options;
  options.granularity = ResponseGranularity::kBestSingleMove;
  Rng rng(809);
  for (int trial = 0; trial < 30; ++trial) {
    const StrategyMatrix start = random_full_allocation(game, rng);
    const DynamicsResult result =
        run_response_dynamics(game, start, options);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  }
}

TEST(Dynamics, DeploysParkedRadiosEnRouteToEquilibrium) {
  // Start from the all-parked state: Lemma 1 in action — dynamics deploy
  // every radio on the way to equilibrium.
  const GameModel game = constant_game(4, 5, 3);
  const DynamicsResult result =
      run_response_dynamics(game, game.empty_strategy());
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.final_state.all_radios_deployed());
  EXPECT_TRUE(is_nash_equilibrium(game, result.final_state));
}

TEST(Dynamics, WelfareTraceIsRecordedWhenRequested) {
  const GameModel game = constant_game(3, 3, 2);
  DynamicsOptions options;
  options.record_welfare_trace = true;
  Rng rng(810);
  const StrategyMatrix start = random_full_allocation(game, rng);
  const DynamicsResult result = run_response_dynamics(game, start, options);
  // One entry for the start plus one per improving step.
  EXPECT_EQ(result.welfare_trace.size(), result.improving_steps + 1);
  // Trace must end at the final state's welfare.
  EXPECT_NEAR(result.welfare_trace.back(), game.welfare(result.final_state),
              1e-12);
}

TEST(Dynamics, NoTraceByDefault) {
  const GameModel game = constant_game(2, 2, 1);
  const DynamicsResult result =
      run_response_dynamics(game, game.empty_strategy());
  EXPECT_TRUE(result.welfare_trace.empty());
}

TEST(Dynamics, ActivationBudgetIsHonored) {
  const GameModel game = constant_game(6, 6, 3);
  DynamicsOptions options;
  options.max_activations = 2;  // far too few to converge from empty
  const DynamicsResult result =
      run_response_dynamics(game, game.empty_strategy(), options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.activations, 2u);
}

TEST(Dynamics, RandomActivationSeedDeterminism) {
  const GameModel game = constant_game(4, 4, 2);
  DynamicsOptions options;
  options.order = ActivationOrder::kUniformRandom;
  Rng start_rng(55);
  const StrategyMatrix start = random_full_allocation(game, start_rng);
  Rng a(99);
  Rng b(99);
  const auto result_a = run_response_dynamics(game, start, options, &a);
  const auto result_b = run_response_dynamics(game, start, options, &b);
  EXPECT_TRUE(result_a.final_state == result_b.final_state);
  EXPECT_EQ(result_a.activations, result_b.activations);
}

/// Convergence sweep across rate families, granularities and orders: from
/// random starts the dynamics must reach a stable state well within the
/// activation budget (empirically the game has the finite-improvement
/// property even for multi-radio users, where no exact potential exists —
/// see reference_potential.h).
using DynamicsParam =
    std::tuple<std::shared_ptr<const RateFunction>, ResponseGranularity,
               ActivationOrder, std::uint64_t>;

class DynamicsSweep : public ::testing::TestWithParam<DynamicsParam> {};

TEST_P(DynamicsSweep, ConvergesFromRandomStarts) {
  const auto& [rate, granularity, order, seed] = GetParam();
  const GameModel game(GameConfig(6, 5, 3), rate);
  DynamicsOptions options;
  options.granularity = granularity;
  options.order = order;
  options.max_activations = 50000;
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    const StrategyMatrix start = random_full_allocation(game, rng);
    const DynamicsResult result =
        run_response_dynamics(game, start, options, &rng);
    ASSERT_TRUE(result.converged) << "seed " << seed << " trial " << trial;
    if (granularity == ResponseGranularity::kBestResponse) {
      // Round-robin quiet pass is an exact convergence proof; random order
      // is a heuristic stop — verify the claim with the oracle.
      EXPECT_TRUE(is_nash_equilibrium(game, result.final_state));
    } else {
      EXPECT_TRUE(is_single_move_stable(game, result.final_state));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DynamicsSweep,
    ::testing::Combine(
        ::testing::Values(std::make_shared<ConstantRate>(1.0),
                          std::make_shared<PowerLawRate>(1.0, 1.0),
                          std::make_shared<GeometricDecayRate>(1.0, 0.8)),
        ::testing::Values(ResponseGranularity::kBestResponse,
                          ResponseGranularity::kBestSingleMove,
                          ResponseGranularity::kRandomImprovingMove),
        ::testing::Values(ActivationOrder::kRoundRobin,
                          ActivationOrder::kUniformRandom),
        ::testing::Values(11u, 22u, 33u)));

}  // namespace
}  // namespace mrca
