// Tests for the packet-level validation tier: determinism of the DES
// replays under the sweep's seed contract, the analytic-vs-measured gap
// metric on known configurations, and the serialization of the new
// per-cell sim statistics (including strict-JSON output under non-finite
// values).
#include "engine/sim_tier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "engine/sweep.h"
#include "engine/sweep_io.h"
#include "mac/tdma.h"
#include "strict_json.h"
#include "test_util.h"

namespace mrca {
namespace {

using engine::CellResult;
using engine::RateSpec;
using engine::SimTierSpec;
using engine::SweepOptions;
using engine::SweepResult;
using engine::SweepSpec;
using engine::SweepStart;

SweepSpec sim_spec(sim::MacKind mac) {
  SweepSpec spec;
  spec.users = {3, 4};
  spec.channels = {3};
  spec.radios = {1, 2};
  spec.rates = {RateSpec{}, RateSpec{RateSpec::Kind::kPowerLaw, 1.0}};
  spec.replicates = 2;
  spec.base_seed = 20260728;
  SimTierSpec tier;
  tier.mac = mac;
  tier.duration_s = 0.2;
  tier.replicates = 2;
  spec.sim_tier = tier;
  return spec;
}

bool identical(const SweepResult& a, const SweepResult& b) {
  return engine::sweep_to_csv(a) == engine::sweep_to_csv(b) &&
         engine::sweep_to_json(a) == engine::sweep_to_json(b);
}

TEST(SimTierSeeds, ArePureFunctionsAndCollisionFree) {
  std::set<std::uint64_t> seen;
  for (std::size_t cell = 0; cell < 40; ++cell) {
    for (std::size_t rep = 0; rep < 5; ++rep) {
      // The run's own RNG stream must stay decorrelated from the replays.
      seen.insert(engine::derive_run_seed(7, cell, rep));
      for (std::size_t sim_rep = 0; sim_rep < 3; ++sim_rep) {
        seen.insert(engine::derive_sim_seed(7, cell, rep, sim_rep));
      }
    }
  }
  EXPECT_EQ(seen.size(), 40u * 5u * 4u);
  EXPECT_EQ(engine::derive_sim_seed(7, 3, 1, 2),
            engine::derive_sim_seed(7, 3, 1, 2));
}

/// The acceptance criterion: the tier rides the sweep's determinism
/// contract, so DCF replays included, aggregates are bit-identical at any
/// thread count.
TEST(SimTier, BitIdenticalAggregatesAtAnyThreadCount) {
  const SweepSpec spec = sim_spec(sim::MacKind::kDcf);
  const SweepResult baseline = engine::run_sweep(spec, SweepOptions{1});
  const SweepResult four = engine::run_sweep(spec, SweepOptions{4});
  const SweepResult hardware = engine::run_sweep(spec, SweepOptions{0});
  EXPECT_TRUE(identical(baseline, four));
  EXPECT_TRUE(identical(baseline, hardware));
}

TEST(SimTier, CountsOneSampleDesReplayPerRun) {
  const SweepSpec spec = sim_spec(sim::MacKind::kTdma);
  const SweepResult result = engine::run_sweep(spec);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.sim_runs, cell.runs * spec.sim_tier->replicates);
    EXPECT_EQ(cell.sim_gap.count(), cell.sim_runs);
    EXPECT_EQ(cell.sim_total_bps.count(), cell.sim_runs);
  }
}

/// The gap metric on the paper's N = C balanced case with k = N radios:
/// Algorithm 1's NE load-balances every channel, the TDMA DES shares slots
/// exactly, and the measured throughput must match the analytic prediction
/// up to slot quantization over the horizon.
TEST(SimTier, TdmaGapIsSmallOnKnownBalancedConfiguration) {
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {4};
  spec.radios = {4};  // N = C = k = 4
  spec.starts = {SweepStart::kSequentialNe};
  spec.replicates = 2;
  SimTierSpec tier;
  tier.mac = sim::MacKind::kTdma;
  tier.duration_s = 2.0;
  spec.sim_tier = tier;

  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  EXPECT_EQ(cell.converged, cell.runs);
  EXPECT_GT(cell.sim_runs, 0u);
  // ~198 slots per channel over 2 s; per-station quantization is < 3%.
  EXPECT_LT(cell.sim_gap.mean(), 0.05);
  EXPECT_GT(cell.sim_fairness.mean(), 0.99);
  EXPECT_LT(cell.sim_imbalance.mean(), 0.05);
  EXPECT_GT(cell.sim_total_bps.mean(), 0.0);
}

TEST(SimTier, DcfMeasurementTracksBianchiPrediction) {
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {4};
  spec.radios = {1};
  spec.rates = {RateSpec::parse("dcf")};
  spec.starts = {SweepStart::kSequentialNe};
  SimTierSpec tier;
  tier.mac = sim::MacKind::kDcf;
  tier.duration_s = 0.5;
  spec.sim_tier = tier;

  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  // Bianchi is a mean-field model, so the DES tracks it only approximately,
  // but a 0.5 s horizon keeps the relative gap well under 15%.
  EXPECT_LT(result.cells[0].sim_gap.mean(), 0.15);
}

TEST(AnalyticPerUserBps, MatchesHandComputedShares) {
  const GameModel game = testing::constant_game(2, 2, 1);
  StrategyMatrix strategies = game.empty_strategy();
  strategies.add_radio(0, 0);
  strategies.add_radio(1, 0);  // both users share channel 0; channel 1 idle

  SimTierSpec tier;
  tier.mac = sim::MacKind::kTdma;
  const double total = TdmaModel(TdmaParameters{}).total_rate_bps(2);
  const std::vector<double> analytic =
      engine::analytic_per_user_bps(strategies, tier);
  ASSERT_EQ(analytic.size(), 2u);
  EXPECT_DOUBLE_EQ(analytic[0], total / 2.0);
  EXPECT_DOUBLE_EQ(analytic[1], total / 2.0);
}

TEST(ReplayStrategy, TdmaMeasurementMatchesAnalyticOnDedicatedChannels) {
  const GameModel game = testing::constant_game(2, 2, 1);
  StrategyMatrix strategies = game.empty_strategy();
  strategies.add_radio(0, 0);
  strategies.add_radio(1, 1);  // one user per channel

  SimTierSpec tier;
  tier.mac = sim::MacKind::kTdma;
  tier.duration_s = 2.0;
  const engine::SimTierOutcome outcome = engine::replay_strategy(
      strategies, tier, 1, engine::analytic_per_user_bps(strategies, tier));
  EXPECT_LT(outcome.throughput_gap, 0.02);
  EXPECT_GT(outcome.fairness, 0.999);
  EXPECT_LT(outcome.channel_imbalance, 0.01);
}

TEST(ReplayStrategy, RejectsNonPositiveDuration) {
  const GameModel game = testing::constant_game(2, 2, 1);
  StrategyMatrix strategies = game.empty_strategy();
  strategies.add_radio(0, 0);
  SimTierSpec tier;
  tier.duration_s = 0.0;
  EXPECT_THROW(
      engine::replay_strategy(strategies, tier, 1,
                              engine::analytic_per_user_bps(strategies, tier)),
      std::invalid_argument);
}

TEST(SimTierSpecEquality, DefaultedComparisonIsUsable) {
  SimTierSpec a;
  SimTierSpec b;
  EXPECT_TRUE(a == b);
  b.duration_s = 2.0;
  EXPECT_FALSE(a == b);
  b = a;
  b.mac = sim::MacKind::kTdma;
  EXPECT_FALSE(a == b);
}

TEST(SimTier, RunSweepValidatesTierParameters) {
  SweepSpec spec;
  spec.sim_tier = SimTierSpec{};
  spec.sim_tier->replicates = 0;
  EXPECT_THROW(engine::run_sweep(spec), std::invalid_argument);

  spec.sim_tier = SimTierSpec{};
  spec.sim_tier->duration_s = -1.0;
  EXPECT_THROW(engine::run_sweep(spec), std::invalid_argument);
}

TEST(SimTierIo, CsvAndJsonCarryTheSimColumns) {
  const SweepSpec spec = sim_spec(sim::MacKind::kTdma);
  const SweepResult result = engine::run_sweep(spec);

  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_NE(csv.find("sim_runs,sim_total_bps_mean,sim_gap_mean"),
            std::string::npos);

  const std::string json = engine::sweep_to_json(result);
  EXPECT_NE(json.find("\"sim_gap\""), std::string::npos);
  std::string why;
  EXPECT_TRUE(testing::is_strict_json(json, &why)) << why;

  const std::string table = engine::sweep_to_table(result);
  EXPECT_NE(table.find("sim gap"), std::string::npos);
}

TEST(SimTierIo, TableOmitsSimColumnsWhenTierIsOff) {
  SweepSpec spec;
  spec.users = {3};
  spec.channels = {3};
  const SweepResult result = engine::run_sweep(spec);
  EXPECT_EQ(engine::sweep_to_table(result).find("sim gap"),
            std::string::npos);
}

/// A cell engineered to hold non-finite aggregates: the JSON writer must
/// fall back to null (JSON has no inf/nan literals) and stay strict.
TEST(SimTierIo, NonFiniteStatsSerializeAsStrictJsonNulls) {
  SweepResult result;
  result.total_runs = 1;
  CellResult cell;
  cell.cell.users = 2;
  cell.cell.channels = 2;
  cell.cell.radios = 1;
  cell.runs = 1;
  cell.welfare.add(std::numeric_limits<double>::infinity());
  cell.efficiency.add(std::numeric_limits<double>::quiet_NaN());
  cell.sim_gap.add(-std::numeric_limits<double>::infinity());
  result.cells.push_back(cell);

  const std::string json = engine::sweep_to_json(result);
  std::string why;
  EXPECT_TRUE(testing::is_strict_json(json, &why)) << why;
  EXPECT_NE(json.find("\"welfare\":{\"count\":1,\"mean\":null"),
            std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace mrca
