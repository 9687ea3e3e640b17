// Micro-benchmarks of the core operations (google-benchmark): utility
// evaluation, benefit-of-change, best-response DP, event-queue throughput,
// and one DCF simulation second.
#include <benchmark/benchmark.h>

#include "mrca.h"

namespace {

using namespace mrca;

GameModel make_game(std::size_t users) {
  return GameModel(GameConfig(users, 12, 4),
                   std::make_shared<ConstantRate>(1.0));
}

void BM_Utility(benchmark::State& state) {
  const GameModel game = make_game(static_cast<std::size_t>(state.range(0)));
  const StrategyMatrix ne = sequential_allocation(game);
  UserId user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.utility(ne, user));
    user = (user + 1) % ne.num_users();
  }
}
BENCHMARK(BM_Utility)->Arg(8)->Arg(64)->Arg(512);

void BM_MoveBenefit(benchmark::State& state) {
  const GameModel game = make_game(64);
  StrategyMatrix ne = sequential_allocation(game);
  // Find a user-owned channel to move from.
  RadioMove move{0, 0, 1};
  for (ChannelId c = 0; c < ne.num_channels(); ++c) {
    if (ne.at(0, c) > 0) {
      move.from = c;
      move.to = (c + 1) % ne.num_channels();
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(move_benefit(game, ne, move));
  }
}
BENCHMARK(BM_MoveBenefit);

void BM_BestResponseDp(benchmark::State& state) {
  const GameModel game = make_game(static_cast<std::size_t>(state.range(0)));
  const StrategyMatrix ne = sequential_allocation(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.best_response(ne, 0));
  }
}
BENCHMARK(BM_BestResponseDp)->Arg(8)->Arg(64)->Arg(512);

void BM_PotentialEvaluation(benchmark::State& state) {
  const GameModel game = make_game(64);
  const StrategyMatrix ne = sequential_allocation(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(potential(game, ne));
  }
}
BENCHMARK(BM_PotentialEvaluation);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(i * 7 % 997, [] {});
    }
    while (!queue.empty()) queue.run_next();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_DcfSimulationSecond(benchmark::State& state) {
  const auto stations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::DcfChannelSim channel(DcfParameters::bianchi_fhss(), stations, 1);
    channel.run(1.0);
    benchmark::DoNotOptimize(channel.total_throughput_bps());
  }
}
BENCHMARK(BM_DcfSimulationSecond)->Arg(2)->Arg(10)->Arg(50);

void BM_SequentialAllocationLarge(benchmark::State& state) {
  const GameModel game(GameConfig(256, 16, 8),
                  std::make_shared<ConstantRate>(1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sequential_allocation(game));
  }
}
BENCHMARK(BM_SequentialAllocationLarge);

}  // namespace

BENCHMARK_MAIN();
