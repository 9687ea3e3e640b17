// The pluggable MetricSet API (core/analysis/metrics.h) and its sweep
// integration: registry behavior, built-in metric correctness against
// enumeration oracles on every scenario kind, NaN-as-undefined handling,
// dynamic columns in all three writers, and thread-count determinism.
#include "core/analysis/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "mrca.h"
#include "reference_dynamics.h"
#include "strict_json.h"

namespace mrca {
namespace {

using engine::ScenarioSpec;
using engine::SweepOptions;
using engine::SweepResult;
using engine::SweepSpec;
using engine::SweepStart;

std::shared_ptr<const RateFunction> decaying_rate() {
  return std::make_shared<PowerLawRate>(1.0, 1.0);
}

/// A finished deterministic run on `model`: Algorithm-1 start, round-robin
/// best-response play — the same canonical context the sweep hands metrics.
struct FinishedRun {
  StrategyMatrix start;
  DynamicsResult dynamics;

  explicit FinishedRun(const GameModel& model)
      : start(sequential_allocation(model)),
        dynamics(run_response_dynamics(model, start)) {}

  MetricContext context(const GameModel& model,
                        std::uint64_t seed = 42) const {
    return MetricContext{model, start, dynamics, seed};
  }
};

TEST(MetricSet, ParseListBuildsOrderedColumns) {
  const MetricSet set = MetricSet::parse_list("nash,poa,welfare_eff");
  EXPECT_EQ(set.size(), 3u);
  const std::vector<std::string> expected = {"nash_ne", "nash_welfare",
                                             "poa", "welfare_eff"};
  EXPECT_EQ(set.column_names(), expected);
  EXPECT_EQ(set.num_columns(), 4u);
}

TEST(MetricSet, ParseListRejectsUnknownDuplicateAndEmpty) {
  EXPECT_THROW(MetricSet::parse_list("garbage"), std::invalid_argument);
  EXPECT_THROW(MetricSet::parse_list("nash,nash"), std::invalid_argument);
  EXPECT_THROW(MetricSet::parse_list(""), std::invalid_argument);
  EXPECT_THROW(MetricSet::parse_list("nash,,poa"), std::invalid_argument);
  // The unknown-name error lists the available registry.
  try {
    MetricSet::parse_list("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("theorem1"), std::string::npos);
  }
}

TEST(MetricSet, EveryBuiltinParsesAloneAndTogether) {
  std::string all;
  for (const Metric& metric : MetricSet::builtins()) {
    EXPECT_EQ(MetricSet::parse_list(metric.name).size(), 1u);
    if (!all.empty()) all += ',';
    all += metric.name;
  }
  const MetricSet set = MetricSet::parse_list(all);
  EXPECT_EQ(set.size(), MetricSet::builtins().size());
}

TEST(MetricSet, AddRejectsColumnCollisions) {
  MetricSet set = MetricSet::parse_list("nash");
  Metric clashing{"custom", {"nash_ne"}, [](const MetricContext&) {
                    return std::vector<double>{0.0};
                  }};
  EXPECT_THROW(set.add(std::move(clashing)), std::invalid_argument);
}

TEST(MetricSet, CustomMetricPlugsInLikeABuiltin) {
  // The plug-in seam: a user metric registers next to built-ins and is
  // computed with the same context.
  MetricSet set = MetricSet::parse_list("nash");
  set.add(Metric{"occupancy",
                 {"occupied_channels"},
                 [](const MetricContext& context) {
                   return std::vector<double>{static_cast<double>(
                       context.dynamics.final_state.occupied_channels()
                           .size())};
                 }});
  const GameModel model(GameConfig(3, 3, 1), decaying_rate());
  const FinishedRun run(model);
  const auto values = set.compute(run.context(model));
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 1.0);  // Algorithm 1 + dynamics reach a NE
  EXPECT_EQ(values[1], 3.0);  // all three channels occupied
}

TEST(MetricSet, ComputeChecksArity) {
  MetricSet set;
  set.add(Metric{"broken", {"a", "b"}, [](const MetricContext&) {
                   return std::vector<double>{1.0};
                 }});
  const GameModel model(GameConfig(2, 2, 1), decaying_rate());
  const FinishedRun run(model);
  EXPECT_THROW(set.compute(run.context(model)), std::logic_error);
}

/// The four scenario kinds the acceptance criterion names, as tiny models.
/// The base cell sits in the conflict regime (4 > 3) so the printed
/// Theorem 1 predicate is applicable there.
std::vector<GameModel> tiny_models_of_every_kind() {
  std::vector<GameModel> models;
  models.push_back(GameModel(GameConfig(4, 3, 1), decaying_rate()));
  models.push_back(
      GameModel(GameConfig(3, 3, 1), decaying_rate(), /*cost=*/0.3));
  models.push_back(ScenarioSpec::parse("het=2:1").make_model(
      3, 3, 1, decaying_rate()));
  models.push_back(ScenarioSpec::parse("budgets=1:2").make_model(
      3, 3, 1, decaying_rate()));
  return models;
}

TEST(BuiltinMetrics, NashAndTheorem1MatchTheEnumerationOracle) {
  // Acceptance: nash / theorem1 verified against enumeration oracles on
  // small cells for all four scenario kinds.
  const MetricSet set = MetricSet::parse_list("nash,single_move,theorem1");
  for (const GameModel& model : tiny_models_of_every_kind()) {
    // Ground truth: the full equilibrium set by brute force.
    std::set<std::string> equilibria;
    for (const StrategyMatrix& ne : enumerate_nash_equilibria(model)) {
      equilibria.insert(ne.key());
    }
    ASSERT_FALSE(equilibria.empty());
    const FinishedRun run(model);
    ASSERT_TRUE(run.dynamics.converged);
    const bool oracle_says_nash =
        equilibria.count(run.dynamics.final_state.key()) > 0;
    const auto values = set.compute(run.context(model));
    ASSERT_EQ(values.size(), 5u);
    EXPECT_EQ(values[0], oracle_says_nash ? 1.0 : 0.0);  // nash_ne
    EXPECT_EQ(values[1], 1.0);  // a NE is single-move stable a fortiori
    // theorem1: the verdict must agree with the oracle — via the printed
    // predicate inside its regime, via the exact fallback outside it.
    const bool homogeneous = theorem1_preconditions_hold(model);
    EXPECT_EQ(values[2], homogeneous ? 1.0 : 0.0);  // theorem1_applicable
    EXPECT_EQ(values[3], oracle_says_nash ? 1.0 : 0.0);
    EXPECT_EQ(values[4], homogeneous ? 0.0 : 1.0);  // exact_fallback
  }
}

TEST(BuiltinMetrics, PoaIsClosedFormWhenHomogeneousAndExactOtherwise) {
  const GameModel homogeneous(GameConfig(4, 3, 2), decaying_rate());
  const FinishedRun run(homogeneous);
  const auto values =
      MetricSet::parse_list("poa").compute(run.context(homogeneous));
  EXPECT_EQ(values[0], nash_welfare(homogeneous));
  EXPECT_EQ(values[1], price_of_anarchy(homogeneous));

  // Energy model: the fallback equilibrium's welfare, not the closed form.
  const GameModel energy(GameConfig(3, 3, 2), decaying_rate(), 0.6);
  const FinishedRun energy_run(energy);
  const auto energy_values =
      MetricSet::parse_list("poa").compute(energy_run.context(energy));
  EXPECT_EQ(energy_values[0], nash_welfare(energy));
  EXPECT_NE(energy_values[0],
            nash_welfare(GameModel(energy.config(), decaying_rate())));
}

TEST(BuiltinMetrics, UndefinedValuesAreNaNNotFabricated) {
  // Cost above R(1): spectrum dark, NE welfare 0, PoA undefined.
  const GameModel dark(GameConfig(2, 2, 1), decaying_rate(), 5.0);
  const FinishedRun run(dark);
  const auto values =
      MetricSet::parse_list("poa").compute(run.context(dark));
  EXPECT_EQ(values[0], 0.0);          // nash_welfare: genuinely zero
  EXPECT_TRUE(std::isnan(values[1]));  // poa: undefined, not 0 or inf
}

TEST(BuiltinMetrics, ParetoFallsBackToCertificateBeyondEnumerationScale) {
  // 64 users x 8 channels x 2 radios: ~binom(10,8)^64 matrices — far past
  // the enumeration guard. The welfare certificate must still settle
  // certified states, and uncertified ones must come back NaN, not hang.
  const GameModel big(GameConfig(64, 8, 2), decaying_rate());
  const FinishedRun run(big);
  const auto values =
      MetricSet::parse_list("pareto").compute(run.context(big));
  if (values[1] == 1.0) {
    EXPECT_EQ(values[0], 1.0);
  } else {
    EXPECT_TRUE(std::isnan(values[0]));
  }
}

TEST(BuiltinMetrics, DistributedIsAPureFunctionOfTheSeed) {
  const GameModel model(GameConfig(5, 4, 2), decaying_rate());
  const FinishedRun run(model);
  const MetricSet set = MetricSet::parse_list("distributed");
  const auto first = set.compute(run.context(model, 77));
  const auto second = set.compute(run.context(model, 77));
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0], 1.0);  // converges on this small cell
  EXPECT_GE(first[1], 1.0);  // at least the terminating round
}

TEST(BuiltinMetrics, RegretIsTheAreaBelowFinalWelfareOrNaNWithoutATrace) {
  const GameModel model(GameConfig(4, 3, 2), decaying_rate());
  FinishedRun run(model);
  const MetricSet set = MetricSet::parse_list("regret");
  EXPECT_TRUE(set.needs_welfare_trace());

  // No recorded trace: honest NaN, never a fabricated zero.
  run.dynamics.welfare_trace.clear();
  EXPECT_TRUE(std::isnan(set.compute(run.context(model))[0]));

  // Hand-built trace against the closed-form area: final welfare 5, dips
  // of 2 and 1 below it, one sample above final contributing nothing.
  run.dynamics.welfare_trace = {3.0, 4.0, 6.0, 5.0};
  EXPECT_DOUBLE_EQ(set.compute(run.context(model))[0], 2.0 + 1.0 + 0.0);

  // Play that never sat below where it ended has zero regret.
  run.dynamics.welfare_trace = {9.0, 8.0, 7.0};
  EXPECT_DOUBLE_EQ(set.compute(run.context(model))[0], 0.0);
}

TEST(BuiltinMetrics, OccupancyEntropyMatchesClosedFormDistributions) {
  const GameModel model(GameConfig(4, 4, 1), decaying_rate());
  FinishedRun run(model);
  const MetricSet set = MetricSet::parse_list("occupancy_entropy");
  EXPECT_FALSE(set.needs_welfare_trace());

  // Perfectly even spread over |C| channels: ln(|C|) nats.
  run.dynamics.final_state = StrategyMatrix::from_rows(
      model.config(), {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0},
                       {0, 0, 0, 1}});
  EXPECT_DOUBLE_EQ(set.compute(run.context(model))[0], std::log(4.0));

  // Everyone crowding one channel: a point mass, zero entropy.
  run.dynamics.final_state = StrategyMatrix::from_rows(
      model.config(), {{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0},
                       {1, 0, 0, 0}});
  EXPECT_DOUBLE_EQ(set.compute(run.context(model))[0], 0.0);

  // A 3/4 vs 1/4 split: the two-point Shannon formula.
  run.dynamics.final_state = StrategyMatrix::from_rows(
      model.config(), {{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0},
                       {0, 1, 0, 0}});
  const double p = 0.75;
  EXPECT_DOUBLE_EQ(set.compute(run.context(model))[0],
                   -p * std::log(p) - (1 - p) * std::log(1 - p));

  // Nothing deployed: no distribution to score — NaN, not zero.
  run.dynamics.final_state = StrategyMatrix::from_rows(
      model.config(), {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
                       {0, 0, 0, 0}});
  EXPECT_TRUE(std::isnan(set.compute(run.context(model))[0]));
}

// ---------------------------------------------------------------- sweep --

SweepSpec metric_sweep_spec() {
  SweepSpec spec;
  spec.users = {3, 4};
  spec.channels = {3};
  spec.radios = {1};
  spec.scenarios = ScenarioSpec::parse_list(
      "base;energy=0.1,0.3;het=2:1;budgets=1:2");
  spec.metrics = MetricSet::parse_list("nash,poa,welfare_eff,theorem1");
  spec.replicates = 2;
  spec.base_seed = 17;
  return spec;
}

TEST(MetricSweep, ColumnsFlowThroughAllThreeWriters) {
  const SweepResult result = engine::run_sweep(metric_sweep_spec());
  ASSERT_EQ(result.metric_columns.size(), 7u);
  for (const auto& cell : result.cells) {
    ASSERT_EQ(cell.metric_stats.size(), 7u);
  }

  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_NE(csv.find("nash_ne_mean,nash_ne_count"), std::string::npos);
  EXPECT_NE(csv.find("poa_mean"), std::string::npos);
  EXPECT_NE(csv.find("theorem1_exact_fallback_mean"), std::string::npos);

  const std::string json = engine::sweep_to_json(result);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"welfare_eff\":{"), std::string::npos);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(json, &why)) << why;

  const std::string table = engine::sweep_to_table(result);
  EXPECT_NE(table.find("nash_ne"), std::string::npos);
  EXPECT_NE(table.find("poa"), std::string::npos);
}

TEST(MetricSweep, WithoutMetricsTheOutputIsUnchanged) {
  SweepSpec spec = metric_sweep_spec();
  spec.metrics = MetricSet{};
  const SweepResult result = engine::run_sweep(spec);
  EXPECT_TRUE(result.metric_columns.empty());
  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_EQ(csv.find("nash_ne"), std::string::npos);
  const std::string json = engine::sweep_to_json(result);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(MetricSweep, ConvergedRunsScoreAsEquilibriaOnEveryScenarioKind) {
  const SweepResult result = engine::run_sweep(metric_sweep_spec());
  // Column order: nash_ne, nash_welfare, poa, welfare_eff, theorem1_*.
  for (const auto& cell : result.cells) {
    ASSERT_EQ(cell.converged, cell.runs) << cell.cell.scenario.name();
    EXPECT_EQ(cell.metric_stats[0].mean(), 1.0)
        << cell.cell.scenario.name();
    EXPECT_EQ(cell.metric_stats[0].count(), cell.runs);
    // theorem1's verdict agrees: predicted NE everywhere it converged.
    EXPECT_EQ(cell.metric_stats[5].mean(), 1.0)
        << cell.cell.scenario.name();
  }
}

TEST(MetricSweep, NaNSamplesAreSkippedWithHonestCounts) {
  SweepSpec spec;
  spec.users = {2};
  spec.channels = {2};
  spec.radios = {1};
  // Cost above R(1): poa is NaN on every run — count 0, CSV prints nan.
  spec.scenarios = {ScenarioSpec::parse("energy=5")};
  spec.metrics = MetricSet::parse_list("poa");
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].metric_stats[1].count(), 0u);  // poa column
  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_NE(csv.find(",nan,0"), std::string::npos);
  // ... and the JSON stays strict (null, not nan literals).
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(engine::sweep_to_json(result),
                                            &why))
      << why;
}

TEST(MetricSweep, BitIdenticalAcrossThreadCounts) {
  SweepSpec spec = metric_sweep_spec();
  // Include the stochastic metric: its per-run seed is pure, so even the
  // distributed protocol must not smear across thread counts.
  spec.metrics = MetricSet::parse_list(
      "nash,single_move,theorem1,poa,welfare_eff,pareto,fairness,"
      "convergence,distributed");
  const SweepResult one = engine::run_sweep(spec, SweepOptions{1});
  const SweepResult eight = engine::run_sweep(spec, SweepOptions{8});
  EXPECT_EQ(engine::sweep_to_csv(one), engine::sweep_to_csv(eight));
  EXPECT_EQ(engine::sweep_to_json(one), engine::sweep_to_json(eight));
}

TEST(ConvergenceMetric, ZeroFromAnEquilibriumStart) {
  // Algorithm 1's NE start: no unilateral gain ever reaches epsilon, so
  // the epsilon-NE time is 0.
  const GameModel model(GameConfig(5, 4, 2), decaying_rate());
  const FinishedRun run(model);
  const std::vector<double> values =
      MetricSet::parse_list("convergence").compute(run.context(model));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 0.0);
}

TEST(ConvergenceMetric, PositiveAndBoundedFromAnEmptyStart) {
  // From the empty allocation the first deploys gain R(1) = 1 >> epsilon,
  // so the time is positive; the deterministic replay converges, so it is
  // finite and bounded by the replay's own activation count.
  const GameModel model(GameConfig(6, 4, 2), decaying_rate());
  const StrategyMatrix empty = model.empty_strategy();
  const DynamicsResult dynamics = run_response_dynamics(model, empty);
  ASSERT_TRUE(dynamics.converged);
  MetricContext context{model, empty, dynamics, 42};
  const std::vector<double> values =
      MetricSet::parse_list("convergence").compute(context);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_GT(values[0], 0.0);
  EXPECT_TRUE(std::isfinite(values[0]));
  // The last >= epsilon gain happens strictly before the closing quiet
  // pass of the replay (which itself is bounded like the dynamics).
  EXPECT_LE(values[0],
            static_cast<double>(dynamics.activations +
                                model.config().num_users));
}

TEST(ConvergenceMetric, RunsOnEveryScenarioKindInASweep) {
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {3};
  spec.radios = {1};
  spec.scenarios = {ScenarioSpec{}, ScenarioSpec::parse("energy=0.2"),
                    ScenarioSpec::parse("het=2:1"),
                    ScenarioSpec::parse("budgets=1:2"),
                    ScenarioSpec::parse("weights=2:1")};
  spec.metrics = MetricSet::parse_list("convergence");
  spec.replicates = 2;
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.metric_columns,
            std::vector<std::string>{"eps_ne_time"});
  for (const engine::CellResult& cell : result.cells) {
    // Defined on every run (the replay converges on these tiny games).
    EXPECT_EQ(cell.metric_stats[0].count(), cell.runs)
        << cell.cell.scenario.name();
    EXPECT_GE(cell.metric_stats[0].mean(), 0.0);
  }
}

bool same_value(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

double eps_ne_time_of(const GameModel& model, const StrategyMatrix& start,
                      const DynamicsResult& run) {
  return MetricSet::parse_list("convergence")
      .compute(MetricContext{model, start, run, 42})
      .at(0);
}

// The metric against its former definition, the hand-written replay kept
// in reference_dynamics.h, on random small games of every scenario kind:
// for the canonical runs that read their own record and for every run
// shape that must replay — the other granularities, random order, a
// non-default tolerance, an unconverged run on a short budget, and the
// three learner engines.
TEST(ConvergenceMetric, MatchesTheReferenceReplayOnEveryPath) {
  const std::vector<std::string> scenarios = {
      "base", "energy=0.2", "het=2:1", "budgets=1:2", "weights=2:1",
      "topology=ring:1"};
  Rng rng(20061);
  std::size_t canonical_runs = 0;
  std::size_t short_budget_runs = 0;
  std::size_t late_small_gain_runs = 0;
  // The 36 trials are the full product of the six scenario kinds, three
  // start kinds and two crowding levels.
  for (int trial = 0; trial < 36; ++trial) {
    const std::string& scenario = scenarios[trial % scenarios.size()];
    const int start_kind = trial / 6 % 3;
    // Half the games crowd their channels, so late improving steps gain
    // less than epsilon and the epsilon-NE time precedes the last one.
    const bool crowded = trial / 18 % 2 == 1;
    const std::size_t users = crowded ? 16 + rng.index(16) : 3 + rng.index(6);
    const std::size_t channels = crowded ? 2 + rng.index(2) : 2 + rng.index(4);
    const auto radios = static_cast<RadioCount>(1 + rng.index(2));
    const GameModel model = ScenarioSpec::parse(scenario).make_model(
        users, channels, radios,
        std::make_shared<PowerLawRate>(1.0, rng.uniform(0.2, 1.5)));
    const StrategyMatrix start = start_kind == 0
                                     ? model.empty_strategy()
                                 : start_kind == 1
                                     ? random_full_allocation(model, rng)
                                     : random_partial_allocation(model, rng);
    const double expected = testing::reference_eps_ne_time(model, start);
    const std::string where = scenario + " trial " + std::to_string(trial);

    const DynamicsResult canonical = run_response_dynamics(model, start);
    ASSERT_TRUE(canonical.canonical_best_response) << where;
    canonical_runs += canonical.converged ? 1 : 0;
    // A converged round-robin run's last improving step is followed by
    // exactly one quiet pass of `users` activations.
    late_small_gain_runs +=
        canonical.eps_ne_activation + users < canonical.activations ? 1 : 0;
    EXPECT_TRUE(same_value(eps_ne_time_of(model, start, canonical), expected))
        << where;

    DynamicsOptions short_budget;
    short_budget.max_activations = 1 + rng.index(users);
    const DynamicsResult cut = run_response_dynamics(model, start,
                                                     short_budget);
    short_budget_runs += cut.converged ? 0 : 1;
    EXPECT_TRUE(same_value(eps_ne_time_of(model, start, cut), expected))
        << where;

    std::vector<DynamicsOptions> replayed(4);
    replayed[0].granularity = ResponseGranularity::kBestSingleMove;
    replayed[1].granularity = ResponseGranularity::kRandomImprovingMove;
    replayed[2].order = ActivationOrder::kUniformRandom;
    replayed[3].tolerance = 1e-6;
    for (const DynamicsOptions& options : replayed) {
      Rng run_rng(rng.next_u64());
      const DynamicsResult run =
          run_response_dynamics(model, start, options, &run_rng);
      EXPECT_FALSE(run.canonical_best_response) << where;
      EXPECT_TRUE(same_value(eps_ne_time_of(model, start, run), expected))
          << where;
    }
    for (const std::string learner :
         {"log_linear", "trial_error", "distributed"}) {
      Rng run_rng(rng.next_u64());
      const DynamicsResult run = run_dynamics(
          DynamicsSpec::parse(learner), model, start, {}, &run_rng);
      EXPECT_FALSE(run.canonical_best_response) << where << ' ' << learner;
      EXPECT_TRUE(same_value(eps_ne_time_of(model, start, run), expected))
          << where << ' ' << learner;
    }
  }
  // The reuse path, the short-budget fallback and improving steps below
  // epsilon after the epsilon-NE time were all hit.
  EXPECT_EQ(canonical_runs, 36u);
  EXPECT_GT(short_budget_runs, 0u);
  EXPECT_GT(late_small_gain_runs, 0u);
}

// A canonical run is read, not replayed: a record doctored with a value no
// replay could produce comes back verbatim, and a canonical run that
// exhausted the default budget (or converged past it) is NaN without
// replaying. A run that is not canonical is replayed whatever it records.
TEST(ConvergenceMetric, CanonicalRunsReadTheirOwnRecord) {
  const GameModel model(GameConfig(5, 4, 2), decaying_rate());
  const StrategyMatrix empty = model.empty_strategy();
  DynamicsResult doctored = run_response_dynamics(model, empty);
  ASSERT_TRUE(doctored.canonical_best_response);
  ASSERT_TRUE(doctored.converged);
  const double honest = eps_ne_time_of(model, empty, doctored);
  EXPECT_EQ(honest, testing::reference_eps_ne_time(model, empty));

  doctored.eps_ne_activation = 12345;
  EXPECT_EQ(eps_ne_time_of(model, empty, doctored), 12345.0);

  const std::size_t budget = DynamicsOptions{}.max_activations;
  doctored.converged = false;
  doctored.activations = budget;
  EXPECT_TRUE(std::isnan(eps_ne_time_of(model, empty, doctored)));
  doctored.converged = true;
  doctored.activations = budget + 1;
  EXPECT_TRUE(std::isnan(eps_ne_time_of(model, empty, doctored)));
  doctored.activations = budget;
  EXPECT_EQ(eps_ne_time_of(model, empty, doctored), 12345.0);

  // Unconverged below the budget: the run is only a prefix of the play.
  doctored.converged = false;
  doctored.activations = budget - 1;
  EXPECT_EQ(eps_ne_time_of(model, empty, doctored), honest);
  doctored.canonical_best_response = false;
  doctored.converged = true;
  EXPECT_EQ(eps_ne_time_of(model, empty, doctored), honest);
}

/// The proof the ledger must record for `run`, from the run's shape alone:
/// converged at the default tolerance or below; `best` granularity proves
/// Definition 1, topology or not; every other stopping rule proves
/// single-move stability.
StabilityProof expected_proof(const DynamicsResult& run, bool best_response,
                              const DynamicsOptions& options) {
  if (!run.converged || options.tolerance > kUtilityTolerance) {
    return StabilityProof::kNone;
  }
  if (!best_response ||
      options.granularity != ResponseGranularity::kBestResponse) {
    return StabilityProof::kSingleMove;
  }
  return StabilityProof::kNash;
}

// The verdict metrics against the checks they stand in for, on random
// small games of every scenario kind and every run shape: the runs whose
// own proof is read (converged best response at the default tolerance or
// below, topology runs included, and the learners) and every run that
// must scan (a tolerance above the default, an unconverged run).
TEST(NashMetric, RunProofMatchesTheExactCheckOnEveryPath) {
  const std::vector<std::string> scenarios = {
      "base", "energy=0.2", "het=2:1", "budgets=1:2", "weights=2:1",
      "topology=ring:1"};
  const MetricSet verdicts = MetricSet::parse_list("nash,single_move");
  Rng rng(20062);
  std::size_t nash_proofs = 0;
  std::size_t single_move_proofs = 0;
  std::size_t tolerance_fallbacks = 0;
  std::size_t unconverged_fallbacks = 0;
  // Converged `best` runs under a topology at the default tolerance or
  // below, and those whose closing pass the DP refutes: none may be.
  std::size_t topology_nash_proofs = 0;
  std::size_t topology_disagreements = 0;
  for (int trial = 0; trial < 36; ++trial) {
    const std::string& scenario = scenarios[trial % scenarios.size()];
    const std::size_t users = 3 + rng.index(6);
    const std::size_t channels = 2 + rng.index(4);
    const auto radios = static_cast<RadioCount>(1 + rng.index(2));
    const GameModel model = ScenarioSpec::parse(scenario).make_model(
        users, channels, radios,
        std::make_shared<PowerLawRate>(1.0, rng.uniform(0.2, 1.5)));
    // Each scenario kind meets every start kind.
    const std::size_t start_kind = trial / scenarios.size() % 3;
    const StrategyMatrix start = start_kind == 0
                                     ? model.empty_strategy()
                                 : start_kind == 1
                                     ? random_full_allocation(model, rng)
                                     : random_partial_allocation(model, rng);
    const std::string where = scenario + " trial " + std::to_string(trial);

    const auto check = [&](const DynamicsResult& run, bool best_response,
                           const DynamicsOptions& options,
                           const std::string& shape) {
      const bool nash = model.is_nash_equilibrium(run.final_state);
      const bool stable = is_single_move_stable(model, run.final_state);
      const std::vector<double> columns =
          verdicts.compute(MetricContext{model, start, run});
      EXPECT_EQ(columns.at(0), nash ? 1.0 : 0.0) << where << ' ' << shape;
      EXPECT_EQ(columns.at(1), stable ? 1.0 : 0.0) << where << ' ' << shape;
      EXPECT_EQ(run.proof, expected_proof(run, best_response, options))
          << where << ' ' << shape;
      nash_proofs += run.proof == StabilityProof::kNash ? 1 : 0;
      single_move_proofs += run.proof == StabilityProof::kSingleMove ? 1 : 0;
      unconverged_fallbacks += run.converged ? 0 : 1;
      if (!run.converged || !best_response ||
          options.granularity != ResponseGranularity::kBestResponse) {
        return;
      }
      if (options.tolerance > kUtilityTolerance) {
        ++tolerance_fallbacks;
      } else if (model.topology()) {
        ++topology_nash_proofs;
        topology_disagreements += nash ? 0 : 1;
      }
    };

    for (const ResponseGranularity granularity :
         {ResponseGranularity::kBestResponse,
          ResponseGranularity::kBestSingleMove,
          ResponseGranularity::kRandomImprovingMove}) {
      for (const ActivationOrder order :
           {ActivationOrder::kRoundRobin, ActivationOrder::kUniformRandom}) {
        for (const double tolerance : {1e-6, kUtilityTolerance, 1e-12}) {
          const DynamicsOptions options{.granularity = granularity,
                                        .order = order,
                                        .tolerance = tolerance};
          Rng run_rng(rng.next_u64());
          check(run_response_dynamics(model, start, options, &run_rng), true,
                options,
                "granularity " + ::testing::PrintToString(granularity) +
                    " order " + ::testing::PrintToString(order) +
                    " tolerance " + ::testing::PrintToString(tolerance));
        }
      }
    }
    const DynamicsOptions short_budget{.max_activations =
                                           1 + rng.index(users)};
    check(run_response_dynamics(model, start, short_budget), true,
          short_budget, "short budget");
    for (const std::string learner :
         {"log_linear", "trial_error", "distributed"}) {
      Rng run_rng(rng.next_u64());
      check(run_dynamics(DynamicsSpec::parse(learner), model, start, {},
                         &run_rng),
            false, {}, learner);
    }
  }
  // Both proofs were read, topology runs proved Definition 1 and the DP
  // agreed every time, and every fallback was hit.
  EXPECT_GT(nash_proofs, 0u);
  EXPECT_GT(single_move_proofs, 0u);
  EXPECT_GT(topology_nash_proofs, 0u);
  EXPECT_EQ(topology_disagreements, 0u);
  EXPECT_GT(tolerance_fallbacks, 0u);
  EXPECT_GT(unconverged_fallbacks, 0u);
}

// A proven run is read, not scanned: a record doctored to carry a proof
// for a state that is no equilibrium reads 1, and the same record without
// the proof reads 0. Each proof answers for its own verdict only. The het
// model puts theorem1 on its exact fallback, which shares nash's verdict.
TEST(NashMetric, ProvenRunsReadTheirOwnProof) {
  const GameModel model =
      ScenarioSpec::parse("het=2:1").make_model(5, 4, 2, decaying_rate());
  const StrategyMatrix empty = model.empty_strategy();
  DynamicsResult doctored = run_response_dynamics(model, empty);
  ASSERT_TRUE(doctored.converged);
  ASSERT_EQ(doctored.proof, StabilityProof::kNash);
  // Every user gains by deploying a radio on the empty matrix.
  doctored.final_state = empty;
  ASSERT_FALSE(model.is_nash_equilibrium(empty));
  ASSERT_FALSE(is_single_move_stable(model, empty));

  // nash_ne, single_move_stable, then theorem1's applicable,
  // predicts_nash and exact_fallback.
  const MetricSet verdicts =
      MetricSet::parse_list("nash,single_move,theorem1");
  const auto columns = [&] {
    return verdicts.compute(MetricContext{model, empty, doctored});
  };
  EXPECT_EQ(columns(), (std::vector<double>{1.0, 0.0, 0.0, 1.0, 1.0}));
  doctored.proof = StabilityProof::kSingleMove;
  EXPECT_EQ(columns(), (std::vector<double>{0.0, 1.0, 0.0, 0.0, 1.0}));
  doctored.proof = StabilityProof::kNone;
  EXPECT_EQ(columns(), (std::vector<double>{0.0, 0.0, 0.0, 0.0, 1.0}));
}

TEST(CellMetricCache, MemoizesModelValuesOncePerKey) {
  CellMetricCache cache;
  int computed = 0;
  const auto expensive = [&] {
    ++computed;
    return 42.0;
  };
  EXPECT_EQ(cache.memoize("x", expensive), 42.0);
  EXPECT_EQ(cache.memoize("x", expensive), 42.0);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.memoize("y", [] { return 7.0; }), 7.0);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CellMetricCache, PoaValuesMatchWithAndWithoutTheCache) {
  // The energy model takes poa's exact-fallback path (the expensive,
  // model-only computation the cell cache exists for): a cached context
  // must produce the identical value and compute the equilibrium once.
  const GameModel model = ScenarioSpec::parse("energy=0.1").make_model(
      5, 4, 2, decaying_rate());
  const FinishedRun run(model);
  const MetricSet poa = MetricSet::parse_list("poa");
  const std::vector<double> plain = poa.compute(run.context(model));

  CellMetricCache cache;
  MetricContext cached_context = run.context(model);
  cached_context.cell_cache = &cache;
  const std::vector<double> cached = poa.compute(cached_context);
  EXPECT_EQ(plain, cached);
  EXPECT_EQ(cache.size(), 1u);  // nash_welfare memoized

  // Second replicate of the "cell": the memo answers, values unchanged.
  MetricContext replicate = run.context(model, /*seed=*/43);
  replicate.cell_cache = &cache;
  EXPECT_EQ(poa.compute(replicate), plain);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace mrca
