// Differential testing with RANDOM rate functions: the exact checkers and
// the printed theory are exercised on arbitrary non-increasing rate tables,
// not just the curated families.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/analysis/lemmas.h"
#include "core/analysis/nash.h"
#include "test_util.h"

namespace mrca {
namespace {

/// Random non-increasing table with values in (0.05, 1.0].
std::shared_ptr<const RateFunction> random_rate(Rng& rng, int max_k) {
  std::vector<double> table;
  double value = 1.0;
  for (int k = 0; k < max_k; ++k) {
    table.push_back(value);
    value *= rng.uniform(0.55, 1.0);  // decay by 0-45% per step
    value = std::max(value, 0.05);
  }
  return std::make_shared<TabulatedRate>(std::move(table), "random-table");
}

TEST(Differential, BestResponseOracleOnRandomRates) {
  Rng rng(424242);
  const GameConfig config(3, 3, 2);
  const GameModel scratch(config, std::make_shared<ConstantRate>(1.0));
  const auto all_rows = enumerate_strategy_rows(config);
  for (int game_trial = 0; game_trial < 25; ++game_trial) {
    const GameModel game(config, random_rate(rng, config.total_radios()));
    for (int state_trial = 0; state_trial < 10; ++state_trial) {
      const StrategyMatrix matrix = random_partial_allocation(scratch, rng);
      for (UserId i = 0; i < config.num_users; ++i) {
        const BestResponse dp = game.best_response(matrix, i);
        double best = 0.0;
        for (const auto& row : all_rows) {
          best = std::max(best, utility_if_played(game, matrix, i, row));
        }
        ASSERT_NEAR(dp.utility, best, 1e-10)
            << game.rate_function(0).name() << " " << matrix.key();
      }
    }
  }
}

TEST(Differential, TheoremNecessityOnRandomRates) {
  // NE => printed Theorem 1 conditions, for arbitrary non-increasing R.
  Rng rng(515151);
  const GameConfig config(3, 3, 2);
  for (int game_trial = 0; game_trial < 10; ++game_trial) {
    const GameModel game(config, random_rate(rng, config.total_radios()));
    std::size_t nash_found = 0;
    for_each_strategy_matrix(
        config,
        [&](const StrategyMatrix& matrix) {
          if (is_nash_equilibrium(game, matrix)) {
            ++nash_found;
            EXPECT_TRUE(check_theorem1(matrix).predicts_nash())
                << game.rate_function(0).name() << " " << matrix.key();
          }
          return true;
        },
        /*full_deployment_only=*/true);
    // Parked-radio equilibria are possible for steep random tables, so the
    // full-deployment slice may legitimately be empty; just record it.
    ::testing::Test::RecordProperty("nash_found",
                                    static_cast<int>(nash_found));
  }
}

TEST(Differential, Algorithm1StabilityOnRandomRates) {
  // Algorithm 1's output is a spread, balanced allocation; it must be a NE
  // for EVERY non-increasing rate function (the sufficiency direction the
  // audit proves for the spread case).
  Rng rng(616161);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t users = 2 + rng.index(5);
    const std::size_t channels = 2 + rng.index(4);
    const auto radios = static_cast<RadioCount>(
        1 + rng.index(std::min<std::size_t>(3, channels)));
    const GameConfig config(users, channels, radios);
    const GameModel game(config, random_rate(rng, config.total_radios()));
    const StrategyMatrix ne = sequential_allocation(game);
    EXPECT_LE(ne.max_load() - ne.min_load(), 1);
    EXPECT_TRUE(is_nash_equilibrium(game, ne))
        << config.describe() << " " << ne.key();
  }
}

TEST(Differential, DynamicsConvergeOnRandomRates) {
  Rng rng(717171);
  for (int trial = 0; trial < 15; ++trial) {
    const GameConfig config(4, 4, 2);
    const GameModel game(config, random_rate(rng, config.total_radios()));
    const StrategyMatrix start = random_full_allocation(game, rng);
    const DynamicsResult result = run_response_dynamics(game, start);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(is_nash_equilibrium(game, result.final_state));
  }
}

TEST(Differential, WelfareIdentityOnRandomRates) {
  // Sum of utilities == sum of channel rates, for any rate function and
  // any state — the structural identity behind Theorem 2.
  Rng rng(818181);
  for (int trial = 0; trial < 50; ++trial) {
    const GameConfig config(4, 5, 3);
    const GameModel game(config, random_rate(rng, config.total_radios()));
    const StrategyMatrix matrix = random_partial_allocation(game, rng);
    const auto utilities = game.utilities(matrix);
    double total = 0.0;
    for (const double u : utilities) total += u;
    ASSERT_NEAR(total, game.welfare(matrix), 1e-10);
  }
}

}  // namespace
}  // namespace mrca
