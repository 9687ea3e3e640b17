// The unified GameModel: construction checks, oracle-grade best responses
// under every scenario axis, the shared cache-accelerated dynamics driver
// on scenario models, and incremental-vs-recomputed utility agreement.
#include "core/game_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/alloc/best_response.h"
#include "core/alloc/sequential.h"
#include "core/alloc/utility_cache.h"
#include "core/analysis/nash.h"
#include "core/topology.h"

namespace mrca {
namespace {

std::shared_ptr<const RateFunction> unit_rate() {
  return std::make_shared<ConstantRate>(1.0);
}

/// Heterogeneous rates: one wide, one decaying, two narrow channels.
std::vector<std::shared_ptr<const RateFunction>> mixed_rates() {
  return {std::make_shared<ConstantRate>(3.0),
          std::make_shared<PowerLawRate>(1.5, 1.0),
          std::make_shared<GeometricDecayRate>(1.0, 0.7),
          std::make_shared<ConstantRate>(0.5)};
}

/// Enumerates user `user`'s strategy rows under their own budget.
std::vector<std::vector<RadioCount>> rows_for_budget(std::size_t channels,
                                                     RadioCount budget) {
  if (budget == 0) {
    return {std::vector<RadioCount>(channels, 0)};
  }
  return enumerate_strategy_rows(GameConfig(1, channels, budget));
}

TEST(GameModel, ValidatesConstruction) {
  EXPECT_THROW(GameModel(3, {}, {unit_rate()}), std::invalid_argument);
  EXPECT_THROW(GameModel(3, {2, -1}, {unit_rate()}), std::invalid_argument);
  EXPECT_THROW(GameModel(3, {4, 1}, {unit_rate()}), std::invalid_argument);
  EXPECT_THROW(GameModel(3, {0, 0}, {unit_rate()}), std::invalid_argument);
  EXPECT_THROW(GameModel(3, {1, 2}, {unit_rate(), unit_rate()}),
               std::invalid_argument);  // 2 rates for 3 channels
  EXPECT_THROW(GameModel(3, {1, 2}, {nullptr}), std::invalid_argument);
  EXPECT_THROW(GameModel(GameConfig(2, 3, 1), unit_rate(), -0.5),
               std::invalid_argument);
  // Non-finite prices pass a bare `cost < 0` test; the constructor is the
  // only gate, so it must reject them too.
  for (const double cost : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(GameModel(GameConfig(2, 3, 1), unit_rate(), cost),
                 std::invalid_argument);
    EXPECT_THROW(GameModel(3, {1, 2}, {unit_rate()}, cost),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(GameModel(3, {0, 2, 3}, {unit_rate()}));
}

TEST(GameModel, RadioTotalsPastTheRadioCountRangeAreRejected) {
  // 2.2M users x 1000 radios overflows a 32-bit sum; the total must be
  // named instead of wrapping into a negative (or huge) table size.
  try {
    const GameModel model(1000, std::vector<RadioCount>(2200000, 1000),
                          {unit_rate()});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("2200000000"),
              std::string::npos)
        << error.what();
  }
  const std::vector<RadioCount> at_limit = {
      std::numeric_limits<RadioCount>::max() - 1, 1};
  EXPECT_EQ(total_radio_budget(at_limit),
            std::numeric_limits<RadioCount>::max());
  const std::vector<RadioCount> past_limit = {
      std::numeric_limits<RadioCount>::max(), 1};
  EXPECT_THROW(total_radio_budget(past_limit), std::invalid_argument);
}

TEST(GameModel, BestResponseIsAnOracleUnderAllAxesCombined) {
  // Heterogeneous rates AND mixed budgets AND an energy price in one model
  // — all three scenario axes composed in one model.
  const std::vector<RadioCount> budgets = {1, 3, 2};
  const GameModel model(4, budgets, mixed_rates(), 0.15);
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    StrategyMatrix matrix = model.empty_strategy();
    for (UserId i = 0; i < budgets.size(); ++i) {
      const auto deployed =
          static_cast<RadioCount>(rng.uniform_int(0, budgets[i]));
      for (RadioCount j = 0; j < deployed; ++j) {
        matrix.add_radio(i, rng.index(4));
      }
    }
    for (UserId i = 0; i < budgets.size(); ++i) {
      const BestResponse dp = model.best_response(matrix, i);
      double best = -1e300;
      for (const auto& row : rows_for_budget(4, budgets[i])) {
        StrategyMatrix changed = matrix;
        changed.set_row(i, row);
        best = std::max(best, model.utility(changed, i));
      }
      ASSERT_NEAR(dp.utility, best, 1e-10) << matrix.key();
    }
  }
}

TEST(GameModel, ValidateEnforcesPerUserBudgets) {
  const GameModel model(3, {1, 2}, {unit_rate()});
  StrategyMatrix matrix = model.empty_strategy();
  matrix.add_radio(0, 0);
  EXPECT_NO_THROW(model.validate(matrix));
  matrix.add_radio(0, 1);  // matrix cap is 2, user 0's budget is 1
  EXPECT_THROW(model.validate(matrix), std::invalid_argument);
  EXPECT_THROW(model.utility(matrix, 0), std::invalid_argument);
}

TEST(GameModel, OptimalWelfareSkipsChannelsBelowTheEnergyPrice) {
  // R(1) = 1, cost 0.6: each occupied channel nets 0.4.
  const GameModel cheap(GameConfig(3, 3, 2), unit_rate(), 0.6);
  EXPECT_NEAR(cheap.optimal_welfare(), 3 * 0.4, 1e-12);
  // Cost above R(1): deploying anything is a net loss; optimum is empty.
  const GameModel dear(GameConfig(3, 3, 2), unit_rate(), 1.5);
  EXPECT_DOUBLE_EQ(dear.optimal_welfare(), 0.0);
  // Heterogeneous: only the channels that cover the price count.
  const GameModel mixed(
      2, {1, 1},
      {std::make_shared<ConstantRate>(3.0), std::make_shared<ConstantRate>(1.0)},
      2.0);
  EXPECT_DOUBLE_EQ(mixed.optimal_welfare(), 1.0);  // 3-2 counted, 1-2 not
}

// --- The tentpole's regression: incremental vs recomputed utilities -------

/// Drives a model-backed UtilityCache through `steps` random budget-aware
/// mutations and asserts its utilities equal a fresh recompute exactly and
/// its incremental welfare agrees to 1e-12 throughout.
void drive_cache_and_check(const GameModel& model, Rng& rng, int steps) {
  StrategyMatrix matrix = model.empty_strategy();
  UtilityCache cache(model, matrix);
  const std::size_t users = model.num_users();
  const std::size_t channels = model.num_channels();
  for (int step = 0; step < steps; ++step) {
    const UserId user = static_cast<UserId>(rng.index(users));
    const ChannelId a = static_cast<ChannelId>(rng.index(channels));
    const ChannelId b = static_cast<ChannelId>(rng.index(channels));
    switch (rng.index(4)) {
      case 0:
        if (matrix.user_total(user) < model.budget(user)) {
          cache.add_radio(matrix, user, a);
        }
        break;
      case 1:
        if (matrix.at(user, a) > 0) cache.remove_radio(matrix, user, a);
        break;
      case 2:
        if (matrix.at(user, a) > 0) cache.move_radio(matrix, user, a, b);
        break;
      case 3: {
        std::vector<RadioCount> row(channels, 0);
        RadioCount budget = model.budget(user);
        while (budget > 0 && rng.bernoulli(0.7)) {
          ++row[rng.index(channels)];
          --budget;
        }
        cache.set_row(matrix, user, row);
        break;
      }
    }
    if (step % 100 == 0) {
      ASSERT_LT(cache.welfare_drift(matrix), 1e-12) << "step " << step;
    }
  }
  const std::vector<double> fresh = model.utilities(matrix);
  for (UserId i = 0; i < users; ++i) {
    EXPECT_EQ(cache.utility(i), fresh[i]);
  }
  EXPECT_NEAR(cache.welfare(), model.welfare(matrix), 1e-12);
}

TEST(GameModelCache, TracksHeterogeneousGameTrajectories) {
  const GameModel model(4, std::vector<RadioCount>(6, 3), mixed_rates());
  Rng rng(31);
  drive_cache_and_check(model, rng, 1500);
}

TEST(GameModelCache, TracksVariableBudgetTrajectories) {
  const GameModel model(5, {1, 4, 0, 2, 5, 3}, {unit_rate()});
  Rng rng(37);
  drive_cache_and_check(model, rng, 1500);
}

TEST(GameModelCache, TracksEnergyPricedTrajectories) {
  const GameModel model(GameConfig(6, 5, 3),
                        std::make_shared<PowerLawRate>(1.0, 0.5), 0.25);
  Rng rng(41);
  drive_cache_and_check(model, rng, 1500);
}

TEST(GameModelCache, TracksAllAxesCombined) {
  const GameModel model(4, {2, 4, 1, 3}, mixed_rates(), 0.1);
  Rng rng(43);
  drive_cache_and_check(model, rng, 1500);
}

TEST(GameModelCache, BudgetChecksUseTheModelNotTheMatrixCap) {
  const GameModel model(3, {1, 3}, {unit_rate()});
  StrategyMatrix matrix = model.empty_strategy();
  UtilityCache cache(model, matrix);
  cache.add_radio(matrix, 0, 0);
  // The matrix cap (max budget = 3) would allow more, but user 0's own
  // budget is 1 — both the incremental path and set_row must refuse.
  EXPECT_THROW(cache.add_radio(matrix, 0, 1), std::logic_error);
  std::vector<RadioCount> over{1, 1, 0};
  EXPECT_THROW(cache.set_row(matrix, 0, over), std::invalid_argument);
  EXPECT_EQ(cache.welfare_drift(matrix), 0.0);
}

// --- The shared driver on scenario models ---------------------------------

TEST(UnifiedDynamics, ScenarioModelsConvergeThroughTheSharedDriver) {
  // Heterogeneous bands, mixed budgets and an energy price each run on
  // run_response_dynamics; their fixed points must be verified equilibria.
  const GameModel models[] = {
      GameModel(4, std::vector<RadioCount>(5, 2), mixed_rates()),
      GameModel(4, {1, 2, 3, 4}, {unit_rate()}),
      GameModel(GameConfig(4, 4, 3), unit_rate(), 0.3),
  };
  for (const GameModel& model : models) {
    const DynamicsResult outcome =
        run_response_dynamics(model, model.empty_strategy());
    ASSERT_TRUE(outcome.converged);
    EXPECT_TRUE(model.is_nash_equilibrium(outcome.final_state));
  }
}

TEST(UnifiedSequential, GeneralizedAlgorithm1BalancesAndStabilizes) {
  const GameModel model(4, {1, 2, 3, 4, 2}, {unit_rate()});
  const StrategyMatrix ne = sequential_allocation(model);
  for (UserId i = 0; i < model.num_users(); ++i) {
    EXPECT_EQ(ne.user_total(i), model.budget(i));
  }
  EXPECT_LE(ne.max_load() - ne.min_load(), 1);
  EXPECT_TRUE(model.is_nash_equilibrium(ne));
}

// --- one utility pass per run record ----------------------------------
// utilities(), welfare() and budget_fairness() are evaluated once per run
// record from one utility vector; every value must be bit-identical (not
// merely close) to the per-user utility() definitions, on every scenario
// axis and both strategy storages.

std::vector<std::shared_ptr<const Topology>> record_topologies() {
  return {nullptr,
          std::make_shared<const Topology>(Topology::ring(9, 1)),
          std::make_shared<const Topology>(Topology::ring(9, 2)),
          std::make_shared<const Topology>(Topology::grid(3, 3, 1)),
          std::make_shared<const Topology>(Topology::from_edges(
              9, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {5, 8}, {6, 8}, {7, 8}}))};
}

/// A random budget-feasible allocation (some radios parked).
StrategyMatrix random_allocation(const GameModel& model,
                                 StrategyMatrix::Storage storage, Rng& rng) {
  StrategyMatrix matrix(model.config(), storage);
  for (UserId i = 0; i < model.num_users(); ++i) {
    const auto deployed =
        static_cast<RadioCount>(rng.uniform_int(0, model.budget(i)));
    for (RadioCount r = 0; r < deployed; ++r) {
      matrix.add_radio(i, rng.index(model.num_channels()));
    }
  }
  return matrix;
}

TEST(GameModelRecordPass, UtilityWelfareAndBudgetFairnessAreBitIdentical) {
  const std::vector<RadioCount> budgets = {2, 1, 3, 0, 2, 4, 1, 3, 2};
  const std::vector<double> weights = {2.0, 1.0, 0.5, 1.0, 3.0,
                                       1.0, 0.25, 1.5, 1.0};
  Rng rng(41);
  for (const auto& topology : record_topologies()) {
    for (const bool weighted : {false, true}) {
      for (const double cost : {0.0, 0.15}) {
        const GameModel model(4, budgets, mixed_rates(), cost,
                              weighted ? weights : std::vector<double>{},
                              topology);
        for (const auto storage : {StrategyMatrix::Storage::kDense,
                                   StrategyMatrix::Storage::kSparse}) {
          for (int trial = 0; trial < 20; ++trial) {
            const StrategyMatrix matrix =
                random_allocation(model, storage, rng);
            const std::vector<double> utilities = model.utilities(matrix);
            ASSERT_EQ(utilities.size(), budgets.size());
            double sum = 0.0;
            double raw_sum = 0.0;
            std::vector<double> normalized;
            for (UserId i = 0; i < budgets.size(); ++i) {
              const double utility = model.utility(matrix, i);
              EXPECT_EQ(utilities[i], utility) << matrix.key();
              sum += utility;
              raw_sum += model.raw_utility(matrix, i);
              if (budgets[i] > 0) {
                normalized.push_back(utility /
                                     static_cast<double>(budgets[i]));
              }
            }
            // Unweighted single-domain welfare keeps its per-channel
            // shortcut; everywhere else welfare IS the user-order sum.
            const double welfare = model.weighted() || model.topology()
                                       ? sum
                                       : model.raw_welfare(matrix);
            EXPECT_EQ(model.welfare(matrix), welfare) << matrix.key();
            EXPECT_EQ(model.welfare(matrix, utilities), welfare);
            if (model.topology()) {
              EXPECT_EQ(model.raw_welfare(matrix), raw_sum) << matrix.key();
            }
            const double fairness = jain_fairness(normalized);
            EXPECT_EQ(model.budget_fairness(matrix), fairness);
            EXPECT_EQ(model.budget_fairness(utilities), fairness);
          }
        }
      }
    }
  }
}

TEST(GameModelRecordPass, UtilityVectorsOfTheWrongSizeAreRejected) {
  const GameModel model(3, {1, 2}, {unit_rate()});
  const StrategyMatrix matrix = model.empty_strategy();
  const std::vector<double> short_vector = {0.0};
  EXPECT_THROW(model.welfare(matrix, short_vector), std::invalid_argument);
  EXPECT_THROW(model.budget_fairness(short_vector), std::invalid_argument);
}

TEST(GameModelRecordPass, TopologyRatesPastThePerceivedBoundAreLive) {
  // Ring:2 with k = 3: no user perceives more than 3 * (4 + 1) = 15
  // radios, so the tables stop there; every larger load (up to the global
  // total 60, and beyond) must still equal the live rate function exactly.
  const auto topology = std::make_shared<const Topology>(Topology::ring(20, 2));
  const GameModel model(4, std::vector<RadioCount>(20, 3), mixed_rates(),
                        0.0, {}, topology);
  for (ChannelId c = 0; c < 4; ++c) {
    const RateFunction& live = model.rate_function(c);
    for (RadioCount load = 1; load <= 70; ++load) {
      EXPECT_EQ(model.rate(c, load), live.rate(load)) << c << ' ' << load;
      EXPECT_EQ(model.per_radio(c, load),
                live.rate(load) / static_cast<double>(load))
          << c << ' ' << load;
    }
  }
  // per_radio_spread reads the global column sums, past the table: it must
  // agree with the single-domain model, whose tables cover every load.
  const GameModel global(4, std::vector<RadioCount>(20, 3), mixed_rates());
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    StrategyMatrix matrix = model.empty_strategy();
    for (UserId i = 0; i < 20; ++i) {
      for (RadioCount r = 0; r < 3; ++r) matrix.add_radio(i, rng.index(2));
    }
    ASSERT_GT(matrix.max_load(), 15);
    EXPECT_EQ(model.per_radio_spread(matrix), global.per_radio_spread(matrix));
  }
}

TEST(GameModel, BudgetFairnessIsPerfectAtProportionalShares) {
  const GameModel model(4, {1, 2, 1, 4}, {unit_rate()});
  const StrategyMatrix ne = sequential_allocation(model);
  // Constant R with balanced loads: every radio earns the same, so
  // utilities are exactly proportional to budgets.
  EXPECT_NEAR(model.budget_fairness(ne), 1.0, 1e-9);
}

}  // namespace
}  // namespace mrca
