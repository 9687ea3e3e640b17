// The model-generic analysis layer: nash.h / efficiency.h / pareto.h /
// lemmas.h entry points audited against independent oracles (brute-force
// Definition 1, the printed Theorem 1 predicate, a re-implemented greedy
// loop), and the enumeration respecting per-user budgets exactly so it can
// serve as ground truth for energy / heterogeneous / budget models.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "mrca.h"

namespace mrca {
namespace {

std::shared_ptr<const RateFunction> decaying_rate() {
  return std::make_shared<PowerLawRate>(1.0, 1.0);
}

GameModel make_game(std::size_t users, std::size_t channels,
                    RadioCount radios) {
  return GameModel(GameConfig(users, channels, radios), decaying_rate());
}

GameModel energy_model(std::size_t users, std::size_t channels,
                       RadioCount radios, double cost) {
  return GameModel(GameConfig(users, channels, radios), decaying_rate(),
                   cost);
}

GameModel het_model(std::size_t users, std::size_t channels,
                    RadioCount radios) {
  std::vector<std::shared_ptr<const RateFunction>> rates;
  for (ChannelId c = 0; c < channels; ++c) {
    rates.push_back(std::make_shared<ConstantRate>(
        static_cast<double>(channels - c)));
  }
  return GameModel(channels, std::vector<RadioCount>(users, radios),
                   std::move(rates));
}

GameModel budget_model(std::size_t channels,
                       std::vector<RadioCount> budgets) {
  return GameModel(channels, std::move(budgets), {decaying_rate()});
}

/// Ground-truth Nash check straight from Definition 1: enumerate every
/// budget-feasible alternative row of every user and compare utilities.
/// No DP, no scanner — the reference the fast paths are audited against.
bool oracle_is_nash(const GameModel& model, const StrategyMatrix& strategies,
                    double tolerance = kUtilityTolerance) {
  for (UserId i = 0; i < model.num_users(); ++i) {
    const double current = model.utility(strategies, i);
    for (const auto& row :
         enumerate_strategy_rows(model.num_channels(), model.budget(i))) {
      StrategyMatrix deviated = strategies;
      deviated.set_row(i, row);
      if (model.utility(deviated, i) > current + tolerance) return false;
    }
  }
  return true;
}

TEST(AnalysisParity, GreedyAllocationMatchesTheRetiredBespokeLoop) {
  // The bespoke heterogeneous-band allocator was folded into the shared
  // sequential driver (PlacementRule::kBestMarginal); this re-implements
  // the retired loop as the oracle and demands identical matrices.
  std::vector<std::shared_ptr<const RateFunction>> rates = {
      std::make_shared<ConstantRate>(3.0),
      std::make_shared<ConstantRate>(1.0),
      std::make_shared<PowerLawRate>(2.0, 0.5),
      std::make_shared<GeometricDecayRate>(1.5, 0.8)};
  const GameConfig config(5, 4, 2);
  const GameModel model(config.num_channels,
                        std::vector<RadioCount>(config.num_users,
                                                config.radios_per_user),
                        rates);

  StrategyMatrix expected(config);
  for (UserId user = 0; user < config.num_users; ++user) {
    for (RadioCount j = 0; j < config.radios_per_user; ++j) {
      ChannelId best_channel = 0;
      double best_marginal = -1.0;
      for (ChannelId c = 0; c < config.num_channels; ++c) {
        const RadioCount load = expected.channel_load(c) + 1;
        const RadioCount own = expected.at(user, c) + 1;
        const double after = static_cast<double>(own) /
                             static_cast<double>(load) * model.rate(c, load);
        const double before =
            expected.at(user, c) > 0
                ? static_cast<double>(expected.at(user, c)) /
                      static_cast<double>(expected.channel_load(c)) *
                      model.rate(c, expected.channel_load(c))
                : 0.0;
        if (after - before > best_marginal) {
          best_marginal = after - before;
          best_channel = c;
        }
      }
      expected.add_radio(user, best_channel);
    }
  }
  EXPECT_EQ(sequential_allocation(
                model, {.placement = PlacementRule::kBestMarginal})
                .key(),
            expected.key());
}

TEST(ModelSequential, PlaceOneRadioEnforcesTheUsersOwnBudget) {
  // The matrix cap alone only bounds users by the LARGEST budget; the
  // model-path placement must refuse the (budget+1)-th radio loudly.
  const GameModel model = budget_model(3, {1, 3});
  StrategyMatrix s = model.empty_strategy();
  EXPECT_NO_THROW(place_one_radio(model, s, /*user=*/0));
  EXPECT_THROW(place_one_radio(model, s, /*user=*/0), std::logic_error);
  EXPECT_EQ(s.user_total(0), 1);  // the refused radio never landed
  EXPECT_NO_THROW(place_one_radio(model, s, /*user=*/1));
}

TEST(ModelEnumeration, RespectsPerUserBudgetsExactly) {
  const GameModel model = budget_model(3, {1, 2});
  std::size_t visited = 0;
  for_each_strategy_matrix(model, [&](const StrategyMatrix& s) {
    ++visited;
    EXPECT_LE(s.user_total(0), 1);
    EXPECT_LE(s.user_total(1), 2);
    return true;
  });
  // binom(1+3,3) * binom(2+3,3) = 4 * 10.
  EXPECT_EQ(visited, 40u);
  EXPECT_EQ(strategy_space_size(model), 40.0);
  EXPECT_EQ(strategy_space_size(model, /*full_deployment_only=*/true),
            3.0 * 6.0);
}

TEST(ModelOracle, DpNashCheckerMatchesEnumerationOnEveryScenarioKind) {
  // The acceptance criterion's oracle leg: on tiny cells of all four
  // scenario kinds, the DP-based checker must agree with brute-force
  // Definition 1 on EVERY feasible matrix.
  const std::vector<GameModel> models = {
      make_game(2, 2, 1),              // base
      energy_model(2, 2, 1, 0.35),     // energy-priced
      het_model(2, 3, 1),              // heterogeneous band
      budget_model(2, {1, 2}),         // mixed budgets
  };
  for (const GameModel& model : models) {
    std::size_t equilibria = 0;
    for_each_strategy_matrix(model, [&](const StrategyMatrix& s) {
      const bool exact = oracle_is_nash(model, s);
      EXPECT_EQ(model.is_nash_equilibrium(s), exact) << s.key();
      if (exact) ++equilibria;
      return true;
    });
    EXPECT_GT(equilibria, 0u);
  }
}

TEST(ModelOracle, ParetoEnumerationConsistentWithWelfareCertificate) {
  const std::vector<GameModel> models = {
      energy_model(2, 2, 1, 0.2),
      het_model(2, 3, 1),
      budget_model(2, {1, 2}),
  };
  for (const GameModel& model : models) {
    for_each_strategy_matrix(model, [&](const StrategyMatrix& s) {
      if (welfare_certifies_pareto(model, s)) {
        // The certificate is sufficient: certified matrices must pass the
        // exhaustive check.
        EXPECT_TRUE(is_pareto_optimal(model, s)) << s.key();
      }
      return true;
    });
  }
}

TEST(ModelTheorem1, HomogeneousModelsMatchThePrintedPredicate) {
  const GameModel model = make_game(3, 3, 2);
  for_each_strategy_matrix(model, [&](const StrategyMatrix& s) {
    const Theorem1Result printed = check_theorem1(s);
    const Theorem1Result via_model = check_theorem1(model, s);
    EXPECT_EQ(printed.applicable, via_model.applicable);
    EXPECT_EQ(printed.predicts_nash(), via_model.predicts_nash()) << s.key();
    return true;
  });
}

TEST(ModelTheorem1, BrokenPreconditionsAreNamedNotGuessed) {
  const GameModel energy = energy_model(3, 3, 1, 0.5);
  const GameModel het = het_model(3, 3, 1);
  const GameModel budgets = budget_model(3, {1, 3});
  for (const GameModel* model : {&energy, &het, &budgets}) {
    EXPECT_FALSE(theorem1_preconditions_hold(*model));
    const Theorem1Result result =
        check_theorem1(*model, model->empty_strategy());
    EXPECT_FALSE(result.applicable);
    EXPECT_FALSE(result.predicts_nash());
    ASSERT_FALSE(result.violations.empty());
    EXPECT_NE(result.violations.front().detail.find("homogeneous"),
              std::string::npos);
  }
  EXPECT_TRUE(theorem1_preconditions_hold(make_game(3, 3, 1)));
}

TEST(ModelLemma1, MeasuresEachUserAgainstTheirOwnBudget) {
  const GameModel model = budget_model(3, {1, 3});
  StrategyMatrix s = model.empty_strategy();
  s.add_radio(0, 0);        // user 0: 1 of 1 — satisfied
  s.add_radio(1, 1);        // user 1: 1 of 3 — violated
  const auto violations = lemma1_violations(model, s);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].user, 1u);
  EXPECT_NE(violations[0].detail.find("1 of 3"), std::string::npos);
}

TEST(ModelEfficiency, NashWelfareFallsBackToAnExactEquilibrium) {
  // Energy-priced model: the Theorem-1 closed form does not apply; the
  // fallback must report the welfare of a VERIFIED equilibrium, not the
  // homogeneous formula's fiction.
  const GameModel model = energy_model(3, 3, 2, 0.6);
  const double at_nash = nash_welfare(model);
  ASSERT_FALSE(std::isnan(at_nash));
  // Reproduce the canonical equilibrium the fallback reaches.
  const StrategyMatrix start = sequential_allocation(model);
  const DynamicsResult dynamics = run_response_dynamics(model, start);
  ASSERT_TRUE(dynamics.converged);
  ASSERT_TRUE(model.is_nash_equilibrium(dynamics.final_state));
  EXPECT_EQ(at_nash, model.welfare(dynamics.final_state));
  // And the closed form would have lied: it prices no radio, the
  // equilibrium parks some (deployment is partial at this cost).
  EXPECT_LT(dynamics.final_state.total_deployed(),
            model.config().total_radios());
}

TEST(ModelEfficiency, PriceOfAnarchyIsNaNWhenTheSpectrumGoesDark) {
  // Cost above R(1): every equilibrium parks everything, welfare 0 — PoA
  // undefined, never a fabricated number.
  const GameModel model = energy_model(2, 2, 1, 5.0);
  EXPECT_TRUE(std::isnan(price_of_anarchy(model)));
}

TEST(ModelEfficiency, LoadImbalanceCountsEmptyAllocatableChannels) {
  // Budget cell with fewer radios than channels: the empty channel could
  // have been used, so it must count toward imbalance.
  const GameModel model = budget_model(3, {1, 1});
  StrategyMatrix s = model.empty_strategy();
  s.add_radio(0, 0);
  s.add_radio(1, 0);
  EXPECT_EQ(load_imbalance(s), 2);
}

}  // namespace
}  // namespace mrca
