// Interference-topology hot-path benchmarks: the payoff of per-neighborhood
// incremental repricing. On a sparse graph an activation touches only the
// mover's closed neighborhood (O(degree)), while the single collision
// domain reprices every occupant of the changed channels (O(|N|)) — the
// cache-mutation microbenches make that asymmetry directly visible at the
// 512-user scale (touches_per_op is the operation-count witness), and the
// dynamics benches show it end to end through best-single-move play.
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

GameModel make_model(const std::string& scenario) {
  return engine::ScenarioSpec::parse(scenario).make_model(
      kUsers, kChannels, kRadios, base_rate());
}

/// Best-single-move play from a random start on a graph-load vs
/// global-load model.
void run_dynamics(benchmark::State& state, const std::string& scenario) {
  const GameModel model = make_model(scenario);
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

void BM_RingDynIncremental512(benchmark::State& state) {
  run_dynamics(state, "topology=ring:2");
}
BENCHMARK(BM_RingDynIncremental512)->Unit(benchmark::kMillisecond);

void BM_CompleteDynIncremental512(benchmark::State& state) {
  run_dynamics(state, "base");
}
BENCHMARK(BM_CompleteDynIncremental512)->Unit(benchmark::kMillisecond);

/// One cache-tracked radio move per iteration, rotating through users: the
/// per-activation repricing cost in isolation. The ring model touches
/// O(degree) utilities per move, the global model O(occupants).
void run_cache_moves(benchmark::State& state, const std::string& scenario) {
  const GameModel model = make_model(scenario);
  Rng start_rng(42);
  StrategyMatrix matrix = random_full_allocation(model, start_rng);
  UtilityCache cache(model, matrix);
  UserId user = 0;
  for (auto _ : state) {
    ChannelId from = 0;
    while (matrix.at(user, from) == 0) ++from;
    cache.move_radio(matrix, user, from, (from + 1) % kChannels);
    benchmark::DoNotOptimize(cache.welfare());
    user = (user + 1) % kUsers;
  }
  state.counters["touches_per_op"] = benchmark::Counter(
      static_cast<double>(cache.reprice_touches()),
      benchmark::Counter::kAvgIterations);
}

void BM_CacheMoveRing512(benchmark::State& state) {
  run_cache_moves(state, "topology=ring:2");
}
BENCHMARK(BM_CacheMoveRing512);

void BM_CacheMoveComplete512(benchmark::State& state) {
  run_cache_moves(state, "base");
}
BENCHMARK(BM_CacheMoveComplete512);

}  // namespace

BENCHMARK_MAIN();
