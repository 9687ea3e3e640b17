#include "core/alloc/distributed.h"

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

TEST(Distributed, RejectsBadActivationProbability) {
  const GameModel game = constant_game(2, 2, 1);
  Rng rng(1);
  DistributedOptions options;
  options.activation_probability = 0.0;
  EXPECT_THROW(
      run_distributed_allocation(game, game.empty_strategy(), options, rng),
      std::invalid_argument);
  options.activation_probability = 1.5;
  EXPECT_THROW(
      run_distributed_allocation(game, game.empty_strategy(), options, rng),
      std::invalid_argument);
}

TEST(Distributed, StableStartTerminatesInOneRound) {
  const GameModel game = constant_game(3, 3, 1);
  const auto stable = StrategyMatrix::from_rows(
      game.config(), {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  Rng rng(2);
  const DistributedResult result =
      run_distributed_allocation(game, stable, {}, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.total_moves, 0u);
  EXPECT_TRUE(result.final_state == stable);
}

TEST(Distributed, ConvergedStateIsSingleMoveStable) {
  const GameModel game = constant_game(5, 4, 2);
  Rng master(3);
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng = master.split();
    const StrategyMatrix start = random_full_allocation(game, rng);
    DistributedOptions options;
    options.activation_probability = 0.3;
    options.max_rounds = 5000;
    const DistributedResult result =
        run_distributed_allocation(game, start, options, rng);
    ASSERT_TRUE(result.converged) << "trial " << trial;
    EXPECT_TRUE(is_single_move_stable(game, result.final_state));
  }
}

TEST(Distributed, SeedDeterminism) {
  const GameModel game = constant_game(4, 4, 2);
  Rng start_rng(44);
  const StrategyMatrix start = random_full_allocation(game, start_rng);
  DistributedOptions options;
  options.activation_probability = 0.5;
  Rng a(7);
  Rng b(7);
  const auto result_a = run_distributed_allocation(game, start, options, a);
  const auto result_b = run_distributed_allocation(game, start, options, b);
  EXPECT_TRUE(result_a.final_state == result_b.final_state);
  EXPECT_EQ(result_a.rounds, result_b.rounds);
  EXPECT_EQ(result_a.total_moves, result_b.total_moves);
}

TEST(Distributed, DeploysSparesFromEmptyStart) {
  const GameModel game = constant_game(4, 5, 3);
  Rng rng(8);
  DistributedOptions options;
  options.activation_probability = 0.4;
  options.max_rounds = 5000;
  const DistributedResult result =
      run_distributed_allocation(game, game.empty_strategy(), options, rng);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.final_state.all_radios_deployed());
}

TEST(Distributed, LockstepActivationCanOscillateButIsBounded) {
  // p = 1: all users move simultaneously on stale information — classic
  // herding. The run must respect max_rounds and report honestly whether
  // the final state happens to be stable.
  const GameModel game = constant_game(4, 4, 2);
  Rng rng(9);
  const StrategyMatrix start = random_full_allocation(game, rng);
  DistributedOptions options;
  options.activation_probability = 1.0;
  options.max_rounds = 200;
  const DistributedResult result =
      run_distributed_allocation(game, start, options, rng);
  EXPECT_LE(result.rounds, 200u);
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
  DistributedOptions options;
  options.activation_probability = probability;
  options.max_rounds = 20000;
  const DistributedResult result =
      run_distributed_allocation(game, start, options, rng);
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
