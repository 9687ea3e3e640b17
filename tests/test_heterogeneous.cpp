// Heterogeneous channels (paper §2 relaxation): channel c has its own
// non-increasing rate function R_c(k). Theorem 1's load balancing no longer
// holds — equilibria approximately equalize the PER-RADIO rate R_c(k_c)/k_c
// across occupied channels (a discrete water-filling), which
// GameModel::per_radio_spread quantifies.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/analysis/nash.h"
#include "core/game_model.h"
#include "test_util.h"

namespace mrca {
namespace {

/// Uniform budgets, one rate function per channel.
GameModel heterogeneous(
    const GameConfig& config,
    std::vector<std::shared_ptr<const RateFunction>> rates) {
  return GameModel(config.num_channels,
                   std::vector<RadioCount>(config.num_users,
                                           config.radios_per_user),
                   std::move(rates));
}

/// Greedy selfish filling: each radio onto the channel with the best
/// marginal rate for its user.
StrategyMatrix greedy_allocation(const GameModel& game) {
  return sequential_allocation(game,
                               {.placement = PlacementRule::kBestMarginal});
}

std::vector<std::shared_ptr<const RateFunction>> uniform_rates(
    std::size_t channels, double rate) {
  return std::vector<std::shared_ptr<const RateFunction>>(
      channels, std::make_shared<ConstantRate>(rate));
}

/// One wide channel (rate 3) and two narrow ones (rate 1).
GameModel wide_and_narrow(std::size_t users, RadioCount radios) {
  std::vector<std::shared_ptr<const RateFunction>> rates = {
      std::make_shared<ConstantRate>(3.0), std::make_shared<ConstantRate>(1.0),
      std::make_shared<ConstantRate>(1.0)};
  return heterogeneous(GameConfig(users, 3, radios), std::move(rates));
}

TEST(Heterogeneous, ValidatesConstruction) {
  EXPECT_THROW(heterogeneous(GameConfig(2, 3, 2), uniform_rates(2, 1.0)),
               std::invalid_argument);
  std::vector<std::shared_ptr<const RateFunction>> with_null =
      uniform_rates(3, 1.0);
  with_null[1] = nullptr;
  EXPECT_THROW(heterogeneous(GameConfig(2, 3, 2), std::move(with_null)),
               std::invalid_argument);
}

TEST(Heterogeneous, UniformRatesReduceToHomogeneousGame) {
  // With identical per-channel rates the utilities must match the paper's
  // homogeneous game exactly, state by state.
  const GameConfig config(3, 4, 2);
  const GameModel het = heterogeneous(config, uniform_rates(4, 1.0));
  const GameModel hom(config, std::make_shared<ConstantRate>(1.0));
  Rng rng(5150);
  for (int trial = 0; trial < 200; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(hom, rng);
    for (UserId i = 0; i < config.num_users; ++i) {
      ASSERT_NEAR(het.utility(matrix, i), hom.utility(matrix, i), 1e-12);
    }
    ASSERT_NEAR(het.welfare(matrix), hom.welfare(matrix), 1e-12);
    ASSERT_EQ(het.is_nash_equilibrium(matrix),
              hom.is_nash_equilibrium(matrix));
  }
}

TEST(Heterogeneous, OptimalWelfarePicksBestChannels) {
  // 2 radios total, channels worth 3/1/1 at single occupancy.
  const GameModel game = wide_and_narrow(2, 1);
  EXPECT_DOUBLE_EQ(game.optimal_welfare(), 4.0);  // 3 + 1
  // 6 radios: all channels occupiable.
  const GameModel bigger = wide_and_narrow(3, 2);
  EXPECT_DOUBLE_EQ(bigger.optimal_welfare(), 5.0);
}

TEST(Heterogeneous, BestResponseMatchesEnumeration) {
  Rng rng(64);
  std::vector<std::shared_ptr<const RateFunction>> rates = {
      std::make_shared<ConstantRate>(2.0),
      std::make_shared<PowerLawRate>(1.5, 1.0),
      std::make_shared<GeometricDecayRate>(1.0, 0.7),
      std::make_shared<ConstantRate>(0.5)};
  const GameConfig config(3, 4, 3);
  const GameModel game = heterogeneous(config, rates);
  const auto all_rows = enumerate_strategy_rows(config);

  for (int trial = 0; trial < 50; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(game, rng);
    for (UserId i = 0; i < config.num_users; ++i) {
      const BestResponse dp = game.best_response(matrix, i);
      // Enumerate all alternatives via direct utility evaluation.
      double best = 0.0;
      for (const auto& row : all_rows) {
        StrategyMatrix changed = matrix;
        changed.set_row(i, row);
        best = std::max(best, game.utility(changed, i));
      }
      ASSERT_NEAR(dp.utility, best, 1e-10) << matrix.key();
    }
  }
}

TEST(Heterogeneous, LoadBalancingBreaksOnUnequalChannels) {
  // 4 users x 1 radio over channels (3,1,1): equilibria pack MORE radios
  // on the wide channel — Theorem 1's delta <= 1 characterization does not
  // survive heterogeneity (delta can legitimately reach 3 here: (3,1,0) is
  // an equilibrium since everyone's per-radio rate is exactly 1.0).
  const GameModel game = wide_and_narrow(4, 1);
  const StrategyMatrix ne = greedy_allocation(game);
  EXPECT_TRUE(game.is_nash_equilibrium(ne));
  EXPECT_GE(ne.channel_load(0), 2);  // the 3x channel draws a crowd
  EXPECT_GT(ne.max_load() - ne.min_load(), 1);  // Prop. 1 bound violated
}

TEST(Heterogeneous, EquilibriumEqualizesPerRadioRates) {
  // Discrete water-filling: at a NE of constant-rate channels, per-radio
  // rates across occupied channels differ by less than the coarsest
  // discrete step (here: within a factor bounded by the test's spread).
  const GameModel game = wide_and_narrow(8, 2);
  const auto outcome = run_response_dynamics(game, greedy_allocation(game));
  ASSERT_TRUE(outcome.converged);
  EXPECT_TRUE(game.is_nash_equilibrium(outcome.final_state));
  // Per-radio rates: wide channel serves ~3x the radios of a narrow one.
  const auto& ne = outcome.final_state;
  const double wide_share =
      3.0 / static_cast<double>(ne.channel_load(0));
  const double narrow_share =
      1.0 / static_cast<double>(ne.channel_load(1));
  EXPECT_NEAR(wide_share, narrow_share, 0.4 * narrow_share);
  EXPECT_LT(game.per_radio_spread(ne), 0.4 * narrow_share + 1e-9);
}

TEST(Heterogeneous, GreedyAllocationIsStableForConstantRates) {
  for (const std::size_t users : {2u, 4u, 7u}) {
    const GameModel game = wide_and_narrow(users, 2);
    const auto outcome = run_response_dynamics(game, greedy_allocation(game));
    ASSERT_TRUE(outcome.converged);
    EXPECT_TRUE(game.is_nash_equilibrium(outcome.final_state));
  }
}

TEST(Heterogeneous, DynamicsConvergeFromRandomStarts) {
  std::vector<std::shared_ptr<const RateFunction>> rates = {
      std::make_shared<ConstantRate>(2.0),
      std::make_shared<PowerLawRate>(1.0, 0.5),
      std::make_shared<ConstantRate>(1.0),
      std::make_shared<GeometricDecayRate>(1.5, 0.8)};
  const GameConfig config(5, 4, 2);
  const GameModel game = heterogeneous(config, rates);
  Rng rng(1123);
  for (int trial = 0; trial < 20; ++trial) {
    const StrategyMatrix start = random_full_allocation(game, rng);
    const auto outcome = run_response_dynamics(game, start);
    ASSERT_TRUE(outcome.converged) << "trial " << trial;
    EXPECT_TRUE(game.is_nash_equilibrium(outcome.final_state));
  }
}

TEST(Heterogeneous, PerRadioSpreadZeroOnUniformBalanced) {
  const GameConfig config(3, 3, 2);
  const GameModel game = heterogeneous(config, uniform_rates(3, 1.0));
  const auto matrix = StrategyMatrix::from_rows(
      config, {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}});
  EXPECT_NEAR(game.per_radio_spread(matrix), 0.0, 1e-12);
}

TEST(Heterogeneous, RejectsForeignMatrix) {
  const GameModel game = wide_and_narrow(2, 1);
  const StrategyMatrix other(GameConfig(2, 4, 1));
  EXPECT_THROW(game.utility(other, 0), std::invalid_argument);
  EXPECT_THROW(game.welfare(other), std::invalid_argument);
}

}  // namespace
}  // namespace mrca
