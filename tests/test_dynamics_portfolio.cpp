// The dynamics portfolio (core/dynamics/): spec parsing round-trips, the
// best_response engine's bit-identity with the legacy driver across every
// scenario kind, the run ledger's contract for every engine (trace length
// and end point, spec ranges), the learners' convergence against exact oracles
// (log-linear at T -> 0 lands on single-move-stable sets; trial-and-error
// reaches a Definition-1 Nash equilibrium of the 4-ring game whose
// brute-force oracle lives in test_topology.cpp), and thread-count
// determinism of the dynamics sweep axis.
#include "core/dynamics/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis/nash.h"
#include "core/alloc/random_alloc.h"
#include "core/game_model.h"
#include "core/topology.h"
#include "engine/scenario.h"
#include "engine/sweep.h"
#include "engine/sweep_io.h"
#include "test_util.h"

namespace {

using namespace mrca;
using engine::RateSpec;
using engine::ScenarioSpec;
using engine::SweepOptions;
using engine::SweepResult;
using engine::SweepSpec;
using engine::SweepStart;

// ---------------------------------------------------------------------------
// Spec parsing

TEST(DynamicsSpec, ParseNameRoundTripsForEveryEngine) {
  for (const std::string text :
       {"best_response", "log_linear:0.5:0.01", "log_linear:0.25:0.25",
        "trial_error:0.1", "distributed:0.3"}) {
    const DynamicsSpec spec = DynamicsSpec::parse(text);
    EXPECT_EQ(spec.name(), text);
    EXPECT_EQ(DynamicsSpec::parse(spec.name()), spec);
  }
}

TEST(DynamicsSpec, BareNamesTakeDefaultsAndOneTempPinsFixedSchedule) {
  EXPECT_EQ(DynamicsSpec::parse("best_response"), DynamicsSpec{});
  const DynamicsSpec fixed = DynamicsSpec::parse("log_linear:0.05");
  EXPECT_EQ(fixed.temp_start, 0.05);
  EXPECT_EQ(fixed.temp_end, 0.05);
  const DynamicsSpec bare = DynamicsSpec::parse("log_linear");
  EXPECT_EQ(bare.temp_start, 0.5);
  EXPECT_EQ(bare.temp_end, 0.01);
  EXPECT_EQ(DynamicsSpec::parse("trial_error").exploration, 0.1);
  EXPECT_EQ(DynamicsSpec::parse("distributed").activation_probability, 0.3);
}

TEST(DynamicsSpec, MalformedSpecsAreRejected) {
  for (const std::string text :
       {"", "bogus", "log_linear:", "log_linear:0", "log_linear:-1",
        "log_linear:0.5:0.01:9", "log_linear:x", "trial_error:0",
        "trial_error:1.5", "distributed:0", "distributed:2",
        "best_response:0.5"}) {
    EXPECT_THROW(DynamicsSpec::parse(text), std::invalid_argument)
        << "accepted '" << text << "'";
  }
  EXPECT_THROW(DynamicsSpec::parse_list("best_response,,log_linear"),
               std::invalid_argument);
}

TEST(DynamicsRegistry, CoversEveryKindAndRejectsUnknownNames) {
  EXPECT_EQ(dynamics_engines().size(), 4u);
  for (const DynamicsEngine& engine : dynamics_engines()) {
    EXPECT_EQ(dynamics_engine(engine.name).name, engine.name);
    EXPECT_EQ(dynamics_engine(engine.kind).name, engine.name);
  }
  EXPECT_THROW(dynamics_engine("fictional"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// best_response engine == legacy driver, across every scenario kind

TEST(BestResponseEngine, BitIdenticalToLegacyDriverAcrossScenarioKinds) {
  for (const std::string scenario :
       {"base", "energy=0.2", "het=2:1", "budgets=1:3", "weights=2:1",
        "topology=ring:1"}) {
    const ScenarioSpec spec = ScenarioSpec::parse(scenario);
    const GameModel model = spec.make_model(
        /*users=*/6, /*channels=*/3, /*radios=*/2,
        std::make_shared<PowerLawRate>(1.0, 0.5));
    Rng start_rng(0xfeedu);
    const StrategyMatrix start = random_full_allocation(model, start_rng);

    DynamicsOptions options;
    options.order = ActivationOrder::kUniformRandom;
    options.record_welfare_trace = true;

    Rng legacy_rng(0xabcdu);
    const DynamicsResult legacy =
        run_response_dynamics(model, start, options, &legacy_rng);
    Rng engine_rng(0xabcdu);
    const DynamicsResult wrapped =
        run_dynamics(DynamicsSpec{}, model, start, options, &engine_rng);

    EXPECT_EQ(wrapped.final_state, legacy.final_state) << scenario;
    EXPECT_EQ(wrapped.converged, legacy.converged) << scenario;
    EXPECT_EQ(wrapped.activations, legacy.activations) << scenario;
    EXPECT_EQ(wrapped.improving_steps, legacy.improving_steps) << scenario;
    EXPECT_EQ(wrapped.scan_skips, legacy.scan_skips) << scenario;
    EXPECT_EQ(wrapped.welfare_trace, legacy.welfare_trace) << scenario;
    // Cache-accumulated welfare vs a fresh recompute: equal up to FP
    // rounding.
    EXPECT_NEAR(wrapped.welfare_trace.back(),
                model.raw_welfare(wrapped.final_state), 1e-9)
        << scenario;
  }
}

// ---------------------------------------------------------------------------
// The run ledger's contract, the same for every engine

TEST(RunLedger, EveryEngineKeepsTheSameBooks) {
  for (const std::string text :
       {"best_response", "log_linear:0.2:0.01", "trial_error:0.3",
        "distributed:0.3"}) {
    const DynamicsSpec spec = DynamicsSpec::parse(text);
    for (const GameModel& model : mrca::testing::reference_models()) {
      Rng start_rng(808);
      const StrategyMatrix start = random_full_allocation(model, start_rng);
      DynamicsOptions options;
      options.max_activations = 40 * model.num_users();
      options.record_welfare_trace = true;
      Rng rng_on(17);
      const DynamicsResult on = run_dynamics(spec, model, start, options,
                                             &rng_on);
      // One point at the start, one per improving step, ending at the
      // final state's welfare.
      ASSERT_EQ(on.welfare_trace.size(), on.improving_steps + 1) << text;
      EXPECT_NEAR(on.welfare_trace.back(), model.raw_welfare(on.final_state),
                  1e-9)
          << text;

      options.record_welfare_trace = false;
      Rng rng_off(17);
      const DynamicsResult off = run_dynamics(spec, model, start, options,
                                              &rng_off);
      EXPECT_TRUE(off.welfare_trace.empty()) << text;
      // Recording is bookkeeping only: the run itself is unchanged.
      EXPECT_EQ(off.final_state, on.final_state) << text;
      EXPECT_EQ(off.activations, on.activations) << text;
      EXPECT_EQ(off.improving_steps, on.improving_steps) << text;
    }
  }

  // A spec built in code is held to the parser's ranges.
  const GameModel model = mrca::testing::power_law_game(4, 3, 1);
  const StrategyMatrix start = model.empty_strategy();
  using Kind = DynamicsSpec::Kind;
  for (const DynamicsSpec& spec :
       {DynamicsSpec{.kind = Kind::kLogLinear, .temp_start = 0.0},
        DynamicsSpec{.kind = Kind::kTrialError, .exploration = 0.0},
        DynamicsSpec{.kind = Kind::kTrialError, .exploration = 1.5},
        DynamicsSpec{.kind = Kind::kDistributed,
                     .activation_probability = 0.0}}) {
    Rng rng(3);
    EXPECT_THROW(run_dynamics(spec, model, start, DynamicsOptions{}, &rng),
                 std::invalid_argument)
        << spec.name();
  }
}

// ---------------------------------------------------------------------------
// Learner convergence against exact oracles

TEST(LogLinearEngine, TinyFixedTemperatureReachesSingleMoveStableSets) {
  // At T -> 0 the Gibbs step degenerates to argmax over single-radio
  // changes, so any state the engine declares converged must survive the
  // exact single-move stability predicate.
  const GameModel model = mrca::testing::power_law_game(5, 3, 2, /*alpha=*/1.0);
  const DynamicsSpec spec = DynamicsSpec::parse("log_linear:0.001");
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng start_rng(seed);
    const StrategyMatrix start = random_full_allocation(model, start_rng);
    Rng rng(seed ^ 0x9e3779b9u);
    const DynamicsResult result =
        run_dynamics(spec, model, start, DynamicsOptions{}, &rng);
    ASSERT_TRUE(result.converged) << "seed " << seed;
    EXPECT_TRUE(is_single_move_stable(model, result.final_state))
        << "seed " << seed;
  }
}

TEST(TrialErrorEngine, ReachesNashOfTheFourRingBruteForceOracle) {
  // The 4-ring game whose full 2^4 strategy space test_topology.cpp
  // brute-forces: budget 1, so single-move stability IS Definition-1 Nash
  // and the exact oracle settles the verdict.
  const GameModel model(
      2, std::vector<RadioCount>(4, 1),
      {std::make_shared<PowerLawRate>(1.0, 1.0)},
      /*radio_cost=*/0.05, /*utility_weights=*/{},
      std::make_shared<const Topology>(Topology::ring(4, 1)));
  const DynamicsSpec spec = DynamicsSpec::parse("trial_error:0.5");
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Rng start_rng(seed);
    const StrategyMatrix start = random_full_allocation(model, start_rng);
    Rng rng(seed * 977u);
    const DynamicsResult result =
        run_dynamics(spec, model, start, DynamicsOptions{}, &rng);
    ASSERT_TRUE(result.converged) << "seed " << seed;
    EXPECT_TRUE(model.is_nash_equilibrium(result.final_state))
        << "seed " << seed;
  }
}

TEST(LearnerEngines, TunedPortfolioConvergesOnTheSixtyFourUserCell) {
  // The tuned engine parameters, pinned on N = 64, |C| = 8, k = 2,
  // R(k) = 1/k from one seeded start. Utility gaps shrink as ~1/load^2,
  // so log-linear must anneal well below ~1e-6 to leave the diffusive
  // regime, and the distributed protocol needs p small enough that
  // simultaneous movers stop colliding. Every engine must converge within
  // 500,000 activations.
  const GameModel model = ScenarioSpec{}.make_model(
      64, 8, 2, std::make_shared<PowerLawRate>(1.0, 1.0));
  Rng start_rng(42);
  const StrategyMatrix start = random_full_allocation(model, start_rng);
  DynamicsOptions options;
  options.max_activations = 500000;
  for (const std::string text :
       {"best_response", "log_linear:0.0001:0.000000001", "trial_error:0.2",
        "distributed:0.01"}) {
    Rng rng(42 * 0x9e3779b97f4a7c15ULL + 1);
    const DynamicsResult result =
        run_dynamics(DynamicsSpec::parse(text), model, start, options, &rng);
    EXPECT_TRUE(result.converged)
        << text << " stopped after " << result.activations << " activations";
  }
}

TEST(LearnerEngines, DrawOnlyFromTheHandedRngAndRequireOne) {
  const GameModel model = mrca::testing::power_law_game(4, 3, 1, /*alpha=*/1.0);
  Rng start_rng(5u);
  const StrategyMatrix start = random_full_allocation(model, start_rng);
  for (const std::string name :
       {"log_linear:0.2:0.01", "trial_error:0.3", "distributed:0.5"}) {
    const DynamicsSpec spec = DynamicsSpec::parse(name);
    EXPECT_THROW(run_dynamics(spec, model, start, DynamicsOptions{}, nullptr),
                 std::invalid_argument)
        << name;
    Rng rng_a(42u);
    Rng rng_b(42u);
    const DynamicsResult a =
        run_dynamics(spec, model, start, DynamicsOptions{}, &rng_a);
    const DynamicsResult b =
        run_dynamics(spec, model, start, DynamicsOptions{}, &rng_b);
    EXPECT_EQ(a.final_state, b.final_state) << name;
    EXPECT_EQ(a.activations, b.activations) << name;
    EXPECT_EQ(a.improving_steps, b.improving_steps) << name;
  }
}

// ---------------------------------------------------------------------------
// Sweep integration: axis expansion, defaults, thread-count determinism

SweepSpec portfolio_spec() {
  SweepSpec spec;
  spec.users = {4, 6};
  spec.channels = {3};
  spec.radios = {1, 2};
  spec.rates = {RateSpec{RateSpec::Kind::kPowerLaw, 1.0}};
  spec.dynamics = DynamicsSpec::parse_list(
      "best_response,log_linear:0.2:0.01,trial_error:0.3,distributed:0.3");
  spec.starts = {SweepStart::kRandomFull};
  spec.replicates = 3;
  spec.base_seed = 20260808;
  return spec;
}

TEST(DynamicsSweep, DefaultAxisLeavesSpecEquivalentToExplicitBestResponse) {
  SweepSpec defaulted = portfolio_spec();
  defaulted.dynamics = {DynamicsSpec{}};
  SweepSpec explicit_spec = portfolio_spec();
  explicit_spec.dynamics = DynamicsSpec::parse_list("best_response");
  const SweepResult a = run_sweep(defaulted);
  const SweepResult b = run_sweep(explicit_spec);
  EXPECT_EQ(engine::sweep_to_csv(a), engine::sweep_to_csv(b));
  EXPECT_EQ(engine::sweep_to_json(a), engine::sweep_to_json(b));
}

TEST(DynamicsSweep, LearnersCollapseTheResponseAxes) {
  SweepSpec spec = portfolio_spec();
  spec.granularities = {ResponseGranularity::kBestResponse,
                        ResponseGranularity::kBestSingleMove};
  spec.orders = {ActivationOrder::kRoundRobin,
                 ActivationOrder::kUniformRandom};
  const std::vector<SweepSpec::Cell> cells = spec.expand();
  std::size_t best_response_cells = 0;
  std::size_t learner_cells = 0;
  for (const SweepSpec::Cell& cell : cells) {
    if (cell.dynamics.uses_response_axes()) {
      ++best_response_cells;
    } else {
      ++learner_cells;
      EXPECT_EQ(cell.granularity, spec.granularities.front());
      EXPECT_EQ(cell.order, spec.orders.front());
    }
  }
  // 2 users x 1 channel x 2 radios = 4 grid points; best_response crosses
  // the 2x2 response axes, each learner keeps one cell per grid point.
  EXPECT_EQ(best_response_cells, 4u * 4u);
  EXPECT_EQ(learner_cells, 4u * 3u);
}

TEST(DynamicsSweep, RecordsAreIdenticalAcrossThreadCountsPerEngine) {
  const SweepSpec spec = portfolio_spec();
  SweepOptions one;
  one.threads = 1;
  SweepOptions eight;
  eight.threads = 8;
  const SweepResult serial = run_sweep(spec, one);
  const SweepResult parallel = run_sweep(spec, eight);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(engine::sweep_to_csv(serial), engine::sweep_to_csv(parallel));
  EXPECT_EQ(engine::sweep_to_json(serial), engine::sweep_to_json(parallel));
}

TEST(DynamicsSweep, SeedDerivationIsPureAndEngineDecorrelated) {
  EXPECT_EQ(engine::derive_dynamics_seed(1, 2, 3),
            engine::derive_dynamics_seed(1, 2, 3));
  EXPECT_NE(engine::derive_dynamics_seed(1, 2, 3),
            engine::derive_dynamics_seed(1, 2, 4));
  EXPECT_NE(engine::derive_dynamics_seed(1, 2, 3),
            engine::derive_dynamics_seed(1, 3, 3));
  EXPECT_NE(engine::derive_dynamics_seed(1, 2, 3),
            engine::derive_run_seed(1, 2, 3));
  EXPECT_NE(engine::derive_dynamics_seed(1, 2, 3),
            engine::derive_metric_seed(1, 2, 3));
}

}  // namespace
