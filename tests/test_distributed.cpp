#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/nash.h"
#include "core/dynamics/engine.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::power_law_game;

/// The §3 protocol's spec at activation probability `p`.
DynamicsSpec distributed(double p) {
  return DynamicsSpec{.kind = DynamicsSpec::Kind::kDistributed,
                      .activation_probability = p};
}

/// A budget of `budget` protocol rounds (one round is one activation).
DynamicsOptions rounds(std::size_t budget) {
  return DynamicsOptions{.max_activations = budget};
}

TEST(Distributed, RejectsBadActivationProbability) {
  const GameModel game = constant_game(2, 2, 1);
  Rng rng(1);
  EXPECT_THROW(run_dynamics(distributed(0.0), game, game.empty_strategy(),
                            {}, &rng),
               std::invalid_argument);
  EXPECT_THROW(run_dynamics(distributed(1.5), game, game.empty_strategy(),
                            {}, &rng),
               std::invalid_argument);
}

TEST(Distributed, StableStartTerminatesInOneRound) {
  const GameModel game = constant_game(3, 3, 1);
  const auto stable = StrategyMatrix::from_rows(
      game.config(), {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  Rng rng(2);
  const DynamicsResult result =
      run_dynamics(distributed(0.3), game, stable, rounds(10000), &rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.activations, 1u);
  EXPECT_EQ(result.improving_steps, 0u);
  EXPECT_TRUE(result.final_state == stable);
}

TEST(Distributed, ConvergedStateIsSingleMoveStable) {
  const GameModel game = constant_game(5, 4, 2);
  Rng master(3);
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng = master.split();
    const StrategyMatrix start = random_full_allocation(game, rng);
    const DynamicsResult result =
        run_dynamics(distributed(0.3), game, start, rounds(5000), &rng);
    ASSERT_TRUE(result.converged) << "trial " << trial;
    EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  }
}

// Seed purity: equal seeds walk equal runs.
TEST(Distributed, SeedDeterminism) {
  const GameModel game = constant_game(4, 4, 2);
  Rng start_rng(44);
  const StrategyMatrix start = random_full_allocation(game, start_rng);
  Rng a(7);
  Rng b(7);
  const auto result_a =
      run_dynamics(distributed(0.5), game, start, rounds(10000), &a);
  const auto result_b =
      run_dynamics(distributed(0.5), game, start, rounds(10000), &b);
  EXPECT_TRUE(result_a.final_state == result_b.final_state);
  EXPECT_EQ(result_a.activations, result_b.activations);
  EXPECT_EQ(result_a.improving_steps, result_b.improving_steps);
}

TEST(Distributed, DeploysSparesFromEmptyStart) {
  const GameModel game = constant_game(4, 5, 3);
  Rng rng(8);
  const DynamicsResult result = run_dynamics(
      distributed(0.4), game, game.empty_strategy(), rounds(5000), &rng);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.final_state.all_radios_deployed());
}

TEST(Distributed, LockstepActivationCanOscillateButIsBounded) {
  // p = 1: all users move simultaneously on stale information — classic
  // herding. The run must respect its round budget and report honestly
  // whether the final state happens to be stable.
  const GameModel game = constant_game(4, 4, 2);
  Rng rng(9);
  const StrategyMatrix start = random_full_allocation(game, rng);
  const DynamicsResult result =
      run_dynamics(distributed(1.0), game, start, rounds(200), &rng);
  EXPECT_LE(result.activations, 200u);
  if (result.converged) {
    EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  }
}

/// Sweep: moderate activation probabilities must converge to a stable
/// allocation for all rate families, from both random and empty starts.
using DistParam = std::tuple<std::shared_ptr<const RateFunction>, double,
                             std::uint64_t>;

class DistributedSweep : public ::testing::TestWithParam<DistParam> {};

TEST_P(DistributedSweep, Converges) {
  const auto& [rate, probability, seed] = GetParam();
  const GameModel game(GameConfig(6, 5, 3), rate);
  Rng rng(seed);
  const StrategyMatrix start = random_full_allocation(game, rng);
  const DynamicsResult result = run_dynamics(
      distributed(probability), game, start, rounds(20000), &rng);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  // Stability here implies full deployment (a spare radio always has an
  // improving deploy when R > 0).
  EXPECT_TRUE(result.final_state.all_radios_deployed());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistributedSweep,
    ::testing::Combine(
        ::testing::Values(std::make_shared<ConstantRate>(1.0),
                          std::make_shared<PowerLawRate>(1.0, 1.0)),
        ::testing::Values(0.1, 0.3, 0.6),
        ::testing::Values(101u, 202u)));

}  // namespace
}  // namespace mrca
