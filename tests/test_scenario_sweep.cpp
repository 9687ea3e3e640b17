// ScenarioSpec and the scenario axis of the sweep engine: spec round-trips,
// grid expansion rules, scenario metric columns in all three writers,
// thread-count determinism of scenario sweeps, and the sim tier replaying
// heterogeneous / variable-budget allocations through the DES.
#include "engine/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "mrca.h"
#include "reference_dynamics.h"
#include "strict_json.h"

namespace mrca {
namespace {

using engine::CellResult;
using engine::RateSpec;
using engine::ScenarioSpec;
using engine::SweepOptions;
using engine::SweepResult;
using engine::SweepSpec;
using engine::SweepStart;

ScenarioSpec energy(double cost) {
  ScenarioSpec spec;
  spec.kind = ScenarioSpec::Kind::kEnergy;
  spec.energy_cost = cost;
  return spec;
}

ScenarioSpec het(std::vector<double> scales) {
  ScenarioSpec spec;
  spec.kind = ScenarioSpec::Kind::kHeterogeneous;
  spec.rate_scales = std::move(scales);
  return spec;
}

ScenarioSpec budgets(std::vector<RadioCount> mix) {
  ScenarioSpec spec;
  spec.kind = ScenarioSpec::Kind::kBudgets;
  spec.budget_mix = std::move(mix);
  return spec;
}

ScenarioSpec weights(std::vector<double> mix) {
  ScenarioSpec spec;
  spec.kind = ScenarioSpec::Kind::kWeights;
  spec.weight_mix = std::move(mix);
  return spec;
}

TEST(ScenarioSpec, NameParseRoundTrip) {
  const std::vector<ScenarioSpec> specs = {
      ScenarioSpec{},
      energy(0.25),
      energy(0.12345678901234567),
      het({2.0, 1.0, 0.5}),
      budgets({1, 4, 2}),
      weights({2.0, 1.0}),
      weights({0.5, 1.25, 3.0}),
  };
  for (const ScenarioSpec& spec : specs) {
    EXPECT_EQ(ScenarioSpec::parse(spec.name()), spec) << spec.name();
  }
}

TEST(ScenarioSpec, EmptyListsOnStructBuiltSpecsThrowInsteadOfCrashing) {
  // parse() guards non-emptiness; the open-struct path must too (an empty
  // mix/profile would otherwise be a modulo-by-zero).
  ScenarioSpec no_mix;
  no_mix.kind = ScenarioSpec::Kind::kBudgets;
  EXPECT_THROW(no_mix.budgets(4, 3, 1), std::invalid_argument);
  EXPECT_THROW(no_mix.make_model(4, 3, 1, nullptr), std::invalid_argument);
  ScenarioSpec no_scales;
  no_scales.kind = ScenarioSpec::Kind::kHeterogeneous;
  EXPECT_THROW(no_scales.make_model(4, 3, 1, nullptr), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(ScenarioSpec::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("energy=-1"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("energy=abc"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("het="), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("het=0"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("het=1:-2"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("budgets=0:0"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("budgets=1:x"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("weights="), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("weights=0"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("weights=2:-1"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("weights=1:abc"), std::invalid_argument);
  // Out-of-range weights would amplify floating-point noise past the
  // dynamics tolerance (phantom improving moves at a true NE): rejected
  // at parse time, and at the GameModel layer for open-struct callers.
  EXPECT_THROW(ScenarioSpec::parse("weights=1e12:1"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("weights=1e-9"), std::invalid_argument);
  EXPECT_THROW(weights({2.0, 1e12}).make_model(
                   4, 3, 1, std::make_shared<ConstantRate>(1.0)),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse_list(""), std::invalid_argument);
}

TEST(ScenarioSpec, ParseListExpandsCommaValuesAndSemicolonGroups) {
  const auto specs =
      ScenarioSpec::parse_list("energy=0.1,0.3;het=2:1;budgets=1:4;base");
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0], energy(0.1));
  EXPECT_EQ(specs[1], energy(0.3));
  EXPECT_EQ(specs[2], het({2.0, 1.0}));
  EXPECT_EQ(specs[3], budgets({1, 4}));
  EXPECT_EQ(specs[4], ScenarioSpec{});
}

TEST(ScenarioSpec, BudgetsClampToChannelCountAndCycle) {
  const ScenarioSpec spec = budgets({1, 6});
  const auto result = spec.budgets(5, /*channels=*/4, /*radios=*/2);
  ASSERT_EQ(result.size(), 5u);
  EXPECT_EQ(result[0], 1);
  EXPECT_EQ(result[1], 4);  // 6 clamped to |C| = 4
  EXPECT_EQ(result[2], 1);
  EXPECT_EQ(result[3], 4);
  EXPECT_EQ(result[4], 1);
  EXPECT_EQ(spec.total_radios(5, 4, 2), 11);
  // Non-budget scenarios use the grid's k for every user.
  EXPECT_EQ(ScenarioSpec{}.total_radios(5, 4, 2), 10);
}

TEST(ScenarioSpec, TotalRadiosPastTheRadioCountRangeIsRejected) {
  // 2.2M users x k = 1000 is 2.2e9 radios: summed in int it wrapped to
  // -2,094,967,296 and surfaced as a RateTable error.
  try {
    (void)ScenarioSpec{}.total_radios(2200000, 1000, 1000);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("2200000000"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioExpansion, CrossesTheScenarioAxisAndCollapsesKForBudgets) {
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {4};
  spec.radios = {1, 2};
  spec.scenarios = {ScenarioSpec{}, energy(0.2), budgets({1, 3})};
  const auto cells = spec.expand();
  // base and energy cross both k values; budgets collapses to the first
  // valid k (emitting it per-k would duplicate identical cells).
  ASSERT_EQ(cells.size(), 2 * 2 + 1u);
  std::size_t budget_cells = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    if (cells[i].scenario.kind == ScenarioSpec::Kind::kBudgets) {
      ++budget_cells;
      EXPECT_EQ(cells[i].radios, 1);  // the first valid k
    }
  }
  EXPECT_EQ(budget_cells, 1u);
  EXPECT_EQ(spec.grid_size(), 2u * 3u);
}

TEST(ScenarioExpansion, BudgetCellsSurviveWhenNoGridKIsValid) {
  // budgets= does not use the k axis, so it must be emitted even when every
  // radios value violates k <= |C| (the base cells are rightly dropped).
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {2};
  spec.radios = {3};
  spec.scenarios = {ScenarioSpec{}, budgets({1, 2})};
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].scenario.kind, ScenarioSpec::Kind::kBudgets);
  EXPECT_EQ(cells[0].radios, 0);  // no valid grid k: display-only zero
  // ... and the sweep actually runs it.
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].converged, result.cells[0].runs);
  EXPECT_GT(result.cells[0].deployed.mean(), 0.0);
}

TEST(ScenarioExpansion, DuplicateKValuesEmitOneBudgetCell) {
  SweepSpec spec;
  spec.users = {2};
  spec.channels = {3};
  spec.radios = {2, 2};
  spec.scenarios = {budgets({1, 2})};
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);  // not one per duplicated k
  EXPECT_EQ(cells[0].radios, 2);
}

TEST(ScenarioSweep, EnergyKneeDeploymentFallsWithCost) {
  // The §2 energy relaxation, now measured BY THE ENGINE: equilibrium
  // deployment is monotone non-increasing in the energy price, and the
  // knee (partial deployment) appears at intermediate costs.
  SweepSpec spec;
  spec.users = {3};
  spec.channels = {3};
  spec.radios = {2};
  spec.scenarios = {energy(0.0), energy(0.6), energy(1.5)};
  spec.starts = {SweepStart::kEmpty};
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 3u);
  const double full = result.cells[0].deployed.mean();
  const double knee = result.cells[1].deployed.mean();
  const double off = result.cells[2].deployed.mean();
  EXPECT_DOUBLE_EQ(full, 6.0);  // zero cost: Lemma 1, everything on air
  EXPECT_GT(knee, 0.0);
  EXPECT_LT(knee, full);  // the knee: some radios parked
  EXPECT_DOUBLE_EQ(off, 0.0);  // cost above R(1): spectrum goes dark
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.converged, cell.runs);
  }
}

TEST(ScenarioSweep, HeterogeneousCellsWaterFillAndStayEfficient) {
  SweepSpec spec;
  spec.users = {6};
  spec.channels = {4};
  spec.radios = {2};
  spec.scenarios = {het({3.0, 1.0, 1.0, 1.0})};
  spec.replicates = 3;
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  EXPECT_EQ(cell.converged, cell.runs);
  // Water-filling piles radios on the wide channel: the load-balance law
  // breaks (imbalance > 1) while per-radio rates nearly equalize.
  EXPECT_GT(cell.load_imbalance.mean(), 1.0);
  EXPECT_GT(cell.efficiency.mean(), 0.8);
}

TEST(ScenarioSweep, BudgetCellsRespectPerUserBudgets) {
  SweepSpec spec;
  spec.users = {5};
  spec.channels = {4};
  spec.radios = {1};
  spec.scenarios = {budgets({1, 4})};
  spec.starts = {SweepStart::kSequentialNe};
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  EXPECT_EQ(cell.converged, cell.runs);
  // budgets 1,4,1,4,1 -> 11 radios stay on air at the NE start.
  EXPECT_DOUBLE_EQ(cell.deployed.mean(), 11.0);
  EXPECT_GT(cell.budget_fairness.mean(), 0.8);
}

/// The acceptance criterion: scenario sweeps are bit-identical at any
/// thread count (serializations print doubles at 17 significant digits, so
/// string equality is bit equality of the aggregates).
TEST(ScenarioSweep, CsvBitIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.users = {4, 6};
  spec.channels = {3, 4};
  spec.radios = {1, 2};
  spec.scenarios = {ScenarioSpec{}, energy(0.3), het({2.0, 1.0}),
                    budgets({1, 3})};
  spec.replicates = 2;
  spec.base_seed = 99;
  const SweepResult one = engine::run_sweep(spec, SweepOptions{1});
  const SweepResult eight = engine::run_sweep(spec, SweepOptions{8});
  EXPECT_EQ(engine::sweep_to_csv(one), engine::sweep_to_csv(eight));
  EXPECT_EQ(engine::sweep_to_json(one), engine::sweep_to_json(eight));
}

TEST(ScenarioSweep, WritersCarryTheScenarioColumns) {
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {3};
  spec.radios = {1};
  spec.scenarios = {energy(0.25)};
  const SweepResult result = engine::run_sweep(spec);
  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_NE(csv.find(",scenario,"), std::string::npos);
  EXPECT_NE(csv.find("energy=0.25"), std::string::npos);
  EXPECT_NE(csv.find("deployed_mean"), std::string::npos);
  const std::string json = engine::sweep_to_json(result);
  EXPECT_NE(json.find("\"scenario\":\"energy=0.25\""), std::string::npos);
  EXPECT_NE(json.find("\"per_radio_spread\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_fairness\""), std::string::npos);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(json, &why)) << why;
  const std::string table = engine::sweep_to_table(result);
  EXPECT_NE(table.find("scenario"), std::string::npos);
  EXPECT_NE(table.find("deployed"), std::string::npos);
}

TEST(WeightedModel, UtilitiesWelfareAndCacheAgreeWithTheScaledOracle) {
  // weights=2:1 over 4 users: U_i must be w_i times the base-game utility
  // for the SAME allocation, welfare their sum, and the incremental cache
  // must track both through a full dynamics trajectory.
  const auto rate = std::make_shared<PowerLawRate>(1.0, 1.0);
  const GameModel base = ScenarioSpec{}.make_model(4, 3, 2, rate);
  const GameModel weighted = weights({2.0, 1.0}).make_model(4, 3, 2, rate);
  ASSERT_TRUE(weighted.weighted());
  ASSERT_FALSE(base.weighted());

  Rng rng(7);
  const StrategyMatrix state = random_full_allocation(base, rng);
  double welfare_sum = 0.0;
  for (UserId i = 0; i < 4; ++i) {
    const double expected = (i % 2 == 0 ? 2.0 : 1.0) * base.utility(state, i);
    EXPECT_NEAR(weighted.utility(state, i), expected, 1e-12);
    welfare_sum += expected;
  }
  EXPECT_NEAR(weighted.welfare(state), welfare_sum, 1e-12);

  // Incremental bookkeeping: drive the weighted dynamics through the cache
  // and compare against the full recompute at the end.
  DynamicsOptions options;
  const DynamicsResult result =
      run_response_dynamics(weighted, state, options);
  UtilityCache cache(weighted, result.final_state);
  for (UserId i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.utility(i), weighted.raw_utility(result.final_state, i));
  }
  EXPECT_LT(cache.welfare_drift(result.final_state), 1e-12);
  // Trajectories are weight-invariant (positive scaling preserves every
  // argmax): the base game must walk the identical path.
  const DynamicsResult base_result =
      run_response_dynamics(base, state, options);
  EXPECT_EQ(result.activations, base_result.activations);
  EXPECT_EQ(result.improving_steps, base_result.improving_steps);
  EXPECT_EQ(result.final_state.key(), base_result.final_state.key());
  // ... and the cached driver agrees with the full-recompute reference on
  // the weighted model (both compare raw utilities against raw best
  // responses), ending in a verified weighted NE.
  const DynamicsResult full =
      testing::reference_response_dynamics(weighted, state, options, nullptr);
  EXPECT_EQ(result.activations, full.activations);
  EXPECT_EQ(result.final_state.key(), full.final_state.key());
  EXPECT_TRUE(weighted.is_nash_equilibrium(result.final_state));
}

TEST(WeightedModel, OptimalWelfarePairsHeavyRadiosWithWideChannels) {
  // 2 users x 1 radio on 3 channels with per-channel rates 3,1,1 and
  // weights 2,1: the optimum parks the heavy user on the wide channel,
  // 2*3 + 1*1 = 7. (Weights enter through the general GameModel ctor;
  // the scenario kind composes them with a uniform band.)
  const auto rate = std::make_shared<ConstantRate>(1.0);
  const GameModel model(
      3, {1, 1},
      {std::make_shared<ScaledRate>(rate, 3.0), rate, rate},
      /*radio_cost=*/0.0, {2.0, 1.0});
  EXPECT_NEAR(model.optimal_welfare(), 7.0, 1e-12);

  // Beyond one-radio-per-channel the weighted optimum has no closed form:
  // the model must say NaN, never guess.
  const GameModel crowded(2, {2, 2}, {rate}, 0.0, {2.0, 1.0});
  EXPECT_TRUE(std::isnan(crowded.optimal_welfare()));
  // ... and theorem-1 closed forms abstain for every weighted model.
  EXPECT_FALSE(theorem1_preconditions_hold(model));
}

TEST(WeightedSweep, ReportsWeightedColumnsAndSkipsUnknownOptima) {
  // One cell inside the pairing regime (N*k <= |C|): efficiency defined on
  // every run. One cell beyond it: the optimum is NaN, so efficiency and
  // the anarchy ratio are skipped with honest zero counts while everything
  // else aggregates normally.
  SweepSpec spec;
  spec.users = {3};
  spec.channels = {4};
  spec.radios = {1};
  spec.scenarios = {weights({2.0, 1.0})};
  spec.replicates = 3;
  const SweepResult in_regime = engine::run_sweep(spec);
  ASSERT_EQ(in_regime.cells.size(), 1u);
  EXPECT_EQ(in_regime.cells[0].efficiency.count(), 3u);
  EXPECT_GT(in_regime.cells[0].efficiency.mean(), 0.0);

  spec.channels = {4};
  spec.radios = {2};  // 6 radios > 4 channels: weighted optimum unknown
  const SweepResult beyond = engine::run_sweep(spec);
  ASSERT_EQ(beyond.cells.size(), 1u);
  const CellResult& cell = beyond.cells[0];
  EXPECT_EQ(cell.converged, cell.runs);
  EXPECT_EQ(cell.efficiency.count(), 0u);
  EXPECT_EQ(cell.anarchy_ratio.count(), 0u);
  EXPECT_GT(cell.welfare.mean(), 0.0);
  // The serialized output stays strict JSON (nan means null, counts 0).
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(engine::sweep_to_json(beyond),
                                            &why))
      << why;
}

TEST(WeightedSweep, CsvBitIdenticalAcrossThreadCountsWithWeights) {
  SweepSpec spec;
  spec.users = {4, 6};
  spec.channels = {3, 4};
  spec.radios = {1, 2};
  spec.scenarios = {ScenarioSpec{}, weights({2.0, 1.0}),
                    weights({4.0, 1.0, 1.0})};
  spec.replicates = 2;
  spec.base_seed = 77;
  const SweepResult one = engine::run_sweep(spec, SweepOptions{1});
  const SweepResult eight = engine::run_sweep(spec, SweepOptions{8});
  EXPECT_EQ(engine::sweep_to_csv(one), engine::sweep_to_csv(eight));
  const std::string csv = engine::sweep_to_csv(one);
  EXPECT_NE(csv.find("weights=2:1"), std::string::npos);
  EXPECT_NE(csv.find("weights=4:1:1"), std::string::npos);
}

TEST(ScenarioSweep, SimTierReplaysExtensionAllocationsThroughTheDes) {
  // The packet-level tier consumes the converged StrategyMatrix directly,
  // so heterogeneous and variable-budget allocations replay through the
  // DES exactly like base-game ones.
  SweepSpec spec;
  spec.users = {3};
  spec.channels = {3};
  spec.radios = {1};
  spec.scenarios = {het({2.0, 1.0}), budgets({1, 2})};
  engine::SimTierSpec tier;
  tier.mac = sim::MacKind::kTdma;
  tier.duration_s = 0.2;
  spec.sim_tier = tier;
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.sim_runs, cell.runs);
    EXPECT_GT(cell.sim_total_bps.mean(), 0.0);
    EXPECT_GE(cell.sim_fairness.mean(), 0.0);
  }
}

ScenarioSpec topology(const std::string& text) {
  return ScenarioSpec::parse("topology=" + text);
}

TEST(TopologyScenario, NameParseRoundTripsAndCompleteNormalizesToBase) {
  for (const char* text : {"ring:1", "ring:2", "grid:2x3:1", "edges:0-2:1-3"}) {
    const ScenarioSpec spec = topology(text);
    EXPECT_EQ(spec.kind, ScenarioSpec::Kind::kTopology);
    EXPECT_EQ(spec.name(), std::string("topology=") + text);
    EXPECT_EQ(ScenarioSpec::parse(spec.name()), spec) << text;
  }
  // The complete graph IS the single collision domain: parsed straight to
  // the base kind, so its cells are literally base cells (the byte-identity
  // contract holds by construction, not by luck).
  EXPECT_EQ(topology("complete").kind, ScenarioSpec::Kind::kBase);
  EXPECT_EQ(topology("complete"), ScenarioSpec{});
  EXPECT_THROW(topology("bogus"), std::invalid_argument);
  EXPECT_THROW(topology("ring:0"), std::invalid_argument);
  EXPECT_THROW(topology("grid:3x:1"), std::invalid_argument);
}

TEST(TopologyScenario, ExpansionSkipsCellsTheGraphCannotDescribe) {
  SweepSpec spec;
  spec.users = {4, 6, 9};
  spec.channels = {4};
  spec.radios = {1};
  spec.scenarios = {ScenarioSpec{}, topology("grid:3x3:1"),
                    topology("edges:0-5")};
  const auto cells = spec.expand();
  // base crosses all three user counts; the 3x3 grid pins N=9; the edge
  // list needs user 5 to exist (N >= 6).
  ASSERT_EQ(cells.size(), 3u + 1u + 2u);
  for (const auto& cell : cells) {
    if (cell.scenario.kind != ScenarioSpec::Kind::kTopology) continue;
    EXPECT_TRUE(cell.scenario.topology.compatible(cell.users))
        << cell.scenario.name() << " @ N=" << cell.users;
  }
}

TEST(TopologySweep, CsvAndJsonBitIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.users = {4, 6};
  spec.channels = {4};
  spec.radios = {1, 2};
  spec.rates = {RateSpec::parse("powerlaw=1")};
  spec.scenarios = {ScenarioSpec{}, topology("ring:1"), topology("ring:2")};
  spec.replicates = 3;
  spec.base_seed = 17;
  const SweepResult one = engine::run_sweep(spec, SweepOptions{1});
  const SweepResult eight = engine::run_sweep(spec, SweepOptions{8});
  EXPECT_EQ(engine::sweep_to_csv(one), engine::sweep_to_csv(eight));
  EXPECT_EQ(engine::sweep_to_json(one), engine::sweep_to_json(eight));
}

TEST(TopologySweep, WritersCarryTheTopologyColumns) {
  SweepSpec spec;
  spec.users = {6};
  spec.channels = {4};
  spec.radios = {1};
  spec.scenarios = {ScenarioSpec{}, topology("ring:1")};
  spec.replicates = 2;
  const SweepResult result = engine::run_sweep(spec);
  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_NE(csv.find("coloring_bound_mean,max_degree_mean,"
                     "graph_efficiency_mean"),
            std::string::npos);
  EXPECT_NE(csv.find("topology=ring:1"), std::string::npos);
  const std::string json = engine::sweep_to_json(result);
  EXPECT_NE(json.find("\"coloring_bound\""), std::string::npos);
  EXPECT_NE(json.find("\"graph_efficiency\""), std::string::npos);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(json, &why)) << why;
  // JSON round-trips losslessly, topology stats included.
  const SweepResult reloaded = engine::sweep_from_json(json);
  EXPECT_EQ(engine::sweep_to_csv(reloaded), csv);
  const std::string table = engine::sweep_to_table(result);
  EXPECT_NE(table.find("color bound"), std::string::npos);
  // The base cell has no graph: its topology cells print the '-' sentinel.
  EXPECT_NE(table.find(" - "), std::string::npos);

  // The ring cell's aggregates are populated and the base cell's are not
  // (NaN-skip keeps count() an honest topology-cell signal).
  ASSERT_EQ(result.cells.size(), 2u);
  const CellResult& base_cell = result.cells[0];
  const CellResult& ring_cell = result.cells[1];
  EXPECT_EQ(base_cell.coloring_bound.count(), 0u);
  EXPECT_GT(ring_cell.coloring_bound.count(), 0u);
  EXPECT_DOUBLE_EQ(ring_cell.max_degree.mean(), 2.0);
  // chi(C6) = 2 over 4 channels: blocks of 2, every user earns rate 1 on
  // each of its block's channels... budget 1 => bound = 6 * R(1) = 6.
  EXPECT_DOUBLE_EQ(ring_cell.coloring_bound.mean(), 6.0);
}

}  // namespace
}  // namespace mrca
