// Benchmarks for the packet-level validation tier: cost of one DES replay
// per MAC (the per-run overhead the tier adds to a sweep task), the
// analytic predictor on its own, and an end-to-end sweep with the tier on
// vs off at hardware threads.
#include <benchmark/benchmark.h>

#include "mrca.h"

namespace {

using namespace mrca;

/// A converged mid-size NE allocation to replay: 8 users x 2 radios over 4
/// channels -> every channel carries 4 stations.
StrategyMatrix make_ne_allocation(const GameModel& game) {
  return sequential_allocation(game);
}

GameModel make_game() {
  return GameModel(GameConfig(8, 4, 2), std::make_shared<ConstantRate>(1.0));
}

void run_replay(benchmark::State& state, sim::MacKind mac) {
  const GameModel game = make_game();
  const StrategyMatrix ne = make_ne_allocation(game);
  engine::SimTierSpec tier;
  tier.mac = mac;
  tier.duration_s = 0.5;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const engine::SimTierOutcome outcome =
        engine::replay_strategy(ne, tier, seed++);
    benchmark::DoNotOptimize(outcome.throughput_gap);
  }
}

void BM_ReplayTdmaHalfSecond(benchmark::State& state) {
  run_replay(state, sim::MacKind::kTdma);
}
BENCHMARK(BM_ReplayTdmaHalfSecond)->Unit(benchmark::kMillisecond);

void BM_ReplayDcfHalfSecond(benchmark::State& state) {
  run_replay(state, sim::MacKind::kDcf);
}
BENCHMARK(BM_ReplayDcfHalfSecond)->Unit(benchmark::kMillisecond);

void BM_AnalyticPredictorDcf(benchmark::State& state) {
  const GameModel game = make_game();
  const StrategyMatrix ne = make_ne_allocation(game);
  engine::SimTierSpec tier;  // DCF: one Bianchi fixed point per load value
  for (auto _ : state) {
    const std::vector<double> analytic =
        engine::analytic_per_user_bps(ne, tier);
    benchmark::DoNotOptimize(analytic.data());
  }
}
BENCHMARK(BM_AnalyticPredictorDcf)->Unit(benchmark::kMicrosecond);

void run_sweep_bench(benchmark::State& state, bool with_sim) {
  engine::SweepSpec spec;
  spec.users = {4, 8};
  spec.channels = {4};
  spec.radios = {1, 2};
  spec.replicates = 2;
  if (with_sim) {
    engine::SimTierSpec tier;
    tier.mac = sim::MacKind::kDcf;
    tier.duration_s = 0.1;
    spec.sim_tier = tier;
  }
  engine::SweepOptions options;
  options.threads = 0;  // hardware
  for (auto _ : state) {
    const engine::SweepResult result = engine::run_sweep(spec, options);
    benchmark::DoNotOptimize(result.total_runs);
  }
}

void BM_SweepAnalyticOnly(benchmark::State& state) {
  run_sweep_bench(state, /*with_sim=*/false);
}
BENCHMARK(BM_SweepAnalyticOnly)->Unit(benchmark::kMillisecond);

void BM_SweepWithDcfTier(benchmark::State& state) {
  run_sweep_bench(state, /*with_sim=*/true);
}
BENCHMARK(BM_SweepWithDcfTier)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
