// Batch-engine benchmarks:
//  - response dynamics (best single move and exact best response) on a
//    512-user game;
//  - end-to-end sweep throughput at 1 vs hardware threads;
//  - streaming sessions: JSONL record streaming holds its peak buffered
//    record count (the session's only run-proportional state) flat as the
//    replicate count grows — the max_buffered counter is the witness.
#include <benchmark/benchmark.h>

#include <sstream>

#include "mrca.h"

namespace {

using namespace mrca;

constexpr std::size_t kUsers = 512;
constexpr std::size_t kChannels = 12;
constexpr RadioCount kRadios = 4;

GameModel make_large_game() {
  return GameModel(GameConfig(kUsers, kChannels, kRadios),
                   std::make_shared<PowerLawRate>(1.0, 1.0));
}

/// Best-single-move play from a random start with the welfare trace on.
void BM_DynamicsIncremental512(benchmark::State& state) {
  const GameModel game = make_large_game();
  Rng start_rng(42);
  const StrategyMatrix start = random_full_allocation(game, start_rng);
  DynamicsOptions options;
  options.granularity = ResponseGranularity::kBestSingleMove;
  options.record_welfare_trace = true;
  for (auto _ : state) {
    const DynamicsResult result = run_response_dynamics(game, start, options);
    benchmark::DoNotOptimize(result.improving_steps);
    if (!result.converged) state.SkipWithError("dynamics did not converge");
  }
}
BENCHMARK(BM_DynamicsIncremental512)->Unit(benchmark::kMillisecond);

void BM_BestResponseDynIncremental512(benchmark::State& state) {
  const GameModel game = make_large_game();
  Rng start_rng(43);
  const StrategyMatrix start = random_full_allocation(game, start_rng);
  DynamicsOptions options;
  options.granularity = ResponseGranularity::kBestResponse;
  for (auto _ : state) {
    const DynamicsResult result = run_response_dynamics(game, start, options);
    benchmark::DoNotOptimize(result.improving_steps);
  }
}
BENCHMARK(BM_BestResponseDynIncremental512)->Unit(benchmark::kMillisecond);

void BM_SweepGrid(benchmark::State& state) {
  engine::SweepSpec spec;
  spec.users = {4, 8, 16, 32};
  spec.channels = {4, 8};
  spec.radios = {1, 2, 4};
  spec.rates = {engine::RateSpec{},
                engine::RateSpec{engine::RateSpec::Kind::kPowerLaw, 1.0, 1.0}};
  spec.replicates = 4;
  engine::SweepOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const engine::SweepResult result = engine::run_sweep(spec, options);
    benchmark::DoNotOptimize(result.total_runs);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spec.grid_size() * spec.replicates));
}
BENCHMARK(BM_SweepGrid)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_StreamingSessionRecords(benchmark::State& state) {
  // One grid, growing replicate count, records streamed to a sink as tasks
  // retire. The acceptance criterion is the "max_buffered" counter: the
  // in-order delivery buffer's high-water mark tracks worker-pool skew
  // (a handful of records), NOT total_runs — streamed sweeps no longer
  // hold the run matrix in memory, so replicates scale freely.
  engine::SweepSpec spec;
  spec.users = {8, 16};
  spec.channels = {4};
  spec.radios = {2};
  spec.replicates = static_cast<std::size_t>(state.range(0));
  const engine::SweepPlan plan = engine::SweepPlan::build(spec);
  engine::SessionOptions options;
  options.threads = 4;  // fixed worker count: real scheduling skew anywhere
  std::size_t max_buffered = 0;
  std::size_t total_runs = 0;
  for (auto _ : state) {
    std::ostringstream sink_out;
    engine::RecordSink records(sink_out);
    const engine::SessionStats stats =
        engine::run_session(plan, records, options);
    max_buffered = std::max(max_buffered, stats.max_buffered);
    total_runs = stats.runs;
    benchmark::DoNotOptimize(sink_out.str().size());
  }
  state.counters["replicates"] = static_cast<double>(spec.replicates);
  state.counters["total_runs"] = static_cast<double>(total_runs);
  state.counters["max_buffered"] = static_cast<double>(max_buffered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_runs));
}
BENCHMARK(BM_StreamingSessionRecords)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedSweepOneShard(benchmark::State& state) {
  // Cost of running one shard of an n-way partition: ~1/n of the full
  // sweep, the scaling story behind `mrca sweep --shard i/n`.
  engine::SweepSpec spec;
  spec.users = {4, 8, 16, 32};
  spec.channels = {4, 8};
  spec.radios = {1, 2, 4};
  spec.replicates = 4;
  const engine::SweepPlan plan = engine::SweepPlan::build(spec);
  const auto shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    engine::AggregatingSink sink;
    engine::run_session(plan.shard(0, shards), sink,
                        engine::SessionOptions{1});
    benchmark::DoNotOptimize(sink.result().cells.size());
  }
  state.counters["cells"] =
      static_cast<double>(plan.shard(0, shards).num_cells());
}
BENCHMARK(BM_ShardedSweepOneShard)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
