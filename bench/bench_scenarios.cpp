// Scenario hot-path benchmarks for the unified GameModel PR:
//  - the shared cache-accelerated dynamics driver on each scenario kind
//    (heterogeneous band, mixed radio budgets, energy-priced utilities) at
//    the 512-user scale;
//  - end-to-end scenario-sweep throughput across the worker pool.
#include <benchmark/benchmark.h>

#include "mrca.h"

namespace {

using namespace mrca;

constexpr std::size_t kUsers = 512;
constexpr std::size_t kChannels = 12;
constexpr RadioCount kRadios = 4;

std::shared_ptr<const RateFunction> base_rate() {
  return std::make_shared<PowerLawRate>(1.0, 1.0);
}

GameModel make_model(const engine::ScenarioSpec& scenario) {
  return scenario.make_model(kUsers, kChannels, kRadios, base_rate());
}

engine::ScenarioSpec scenario_of(const std::string& name) {
  return engine::ScenarioSpec::parse(name);
}

/// Best-response play from a random start on one scenario kind.
void run_scenario_dynamics(benchmark::State& state, const std::string& name) {
  const GameModel model = make_model(scenario_of(name));
  Rng start_rng(42);
  const StrategyMatrix start = random_full_allocation(model, start_rng);
  DynamicsOptions options;
  options.granularity = ResponseGranularity::kBestSingleMove;
  options.record_welfare_trace = true;
  for (auto _ : state) {
    const DynamicsResult result =
        run_response_dynamics(model, start, options);
    benchmark::DoNotOptimize(result.improving_steps);
    if (!result.converged) state.SkipWithError("dynamics did not converge");
  }
}

void BM_HeterogeneousDynIncremental512(benchmark::State& state) {
  run_scenario_dynamics(state, "het=4:2:1:1");
}
BENCHMARK(BM_HeterogeneousDynIncremental512)->Unit(benchmark::kMillisecond);

void BM_BudgetMixDynIncremental512(benchmark::State& state) {
  run_scenario_dynamics(state, "budgets=1:2:4:8");
}
BENCHMARK(BM_BudgetMixDynIncremental512)->Unit(benchmark::kMillisecond);

void BM_EnergyDynIncremental512(benchmark::State& state) {
  run_scenario_dynamics(state, "energy=0.05");
}
BENCHMARK(BM_EnergyDynIncremental512)->Unit(benchmark::kMillisecond);

/// The exact DP oracle per activation on the general model (the cost of a
/// kBestResponse step, scenario-independent loads).
void BM_ModelBestResponseOracle(benchmark::State& state) {
  const GameModel model = make_model(scenario_of("het=4:2:1:1"));
  Rng rng(7);
  const StrategyMatrix matrix = random_full_allocation(model, rng);
  UserId user = 0;
  for (auto _ : state) {
    const BestResponse response = model.best_response(matrix, user);
    benchmark::DoNotOptimize(response.utility);
    user = (user + 1) % kUsers;
  }
}
BENCHMARK(BM_ModelBestResponseOracle);

/// End-to-end scenario sweep (all four kinds crossed with the grid) at 1 vs
/// hardware threads — the workload the ScenarioSpec axis unlocks.
void BM_ScenarioSweepGrid(benchmark::State& state) {
  engine::SweepSpec spec;
  spec.users = {8, 16, 32};
  spec.channels = {4, 8};
  spec.radios = {1, 2};
  spec.rates = {engine::RateSpec{engine::RateSpec::Kind::kPowerLaw, 1.0, 1.0}};
  spec.scenarios = engine::ScenarioSpec::parse_list(
      "base;energy=0.1,0.3;het=2:1;budgets=1:2:4");
  spec.replicates = 3;
  engine::SweepOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const engine::SweepResult result = engine::run_sweep(spec, options);
    benchmark::DoNotOptimize(result.total_runs);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spec.expand().size() * spec.replicates));
}
BENCHMARK(BM_ScenarioSweepGrid)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
