#include "sim/network.h"

#include <gtest/gtest.h>

#include "core/game_model.h"
#include "mac/bianchi.h"
#include "test_util.h"

namespace mrca::sim {
namespace {

using mrca::ChannelId;
using mrca::GameModel;
using mrca::GameConfig;
using mrca::StrategyMatrix;
using mrca::UserId;

NetworkOptions quick_dcf(double seconds = 10.0) {
  NetworkOptions options;
  options.mac = MacKind::kDcf;
  options.duration_s = seconds;
  options.seed = 5;
  return options;
}

TEST(NetworkSim, RejectsNonPositiveDuration) {
  const GameModel game = mrca::testing::constant_game(2, 2, 1);
  NetworkOptions options;
  options.duration_s = 0.0;
  EXPECT_THROW(simulate_network(game.empty_strategy(), options),
               std::invalid_argument);
}

TEST(NetworkSim, EmptyChannelsCarryNothing) {
  const GameModel game = mrca::testing::constant_game(2, 3, 1);
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 0);
  matrix.add_radio(1, 0);
  const NetworkResult result = simulate_network(matrix, quick_dcf());
  EXPECT_GT(result.per_channel_bps[0], 0.0);
  EXPECT_DOUBLE_EQ(result.per_channel_bps[1], 0.0);
  EXPECT_DOUBLE_EQ(result.per_channel_bps[2], 0.0);
}

TEST(NetworkSim, PerUserSumsEqualPerChannelSums) {
  const GameModel game = mrca::testing::constant_game(3, 4, 2);
  const auto matrix = StrategyMatrix::from_rows(
      game.config(), {{1, 1, 0, 0}, {0, 1, 1, 0}, {1, 0, 0, 1}});
  const NetworkResult result = simulate_network(matrix, quick_dcf());
  double user_total = 0.0;
  for (const double v : result.per_user_bps) user_total += v;
  EXPECT_NEAR(user_total, result.total_bps(), 1.0);  // bit/s rounding only
}

TEST(NetworkSim, UserWithMoreRadiosOnChannelEarnsProportionally) {
  // User 0 has 2 radios on c0, user 1 has 1: expect a ~2:1 throughput split
  // (DCF fairness is per-radio).
  const GameConfig config(2, 2, 2);
  const auto matrix =
      StrategyMatrix::from_rows(config, {{2, 0}, {1, 0}});
  const NetworkResult result = simulate_network(matrix, quick_dcf(30.0));
  EXPECT_NEAR(result.per_user_bps[0] / result.per_user_bps[1], 2.0, 0.15);
}

TEST(NetworkSim, TdmaSplitIsExact) {
  const GameConfig config(2, 2, 2);
  const auto matrix =
      StrategyMatrix::from_rows(config, {{2, 0}, {1, 1}});
  NetworkOptions options;
  options.mac = MacKind::kTdma;
  options.duration_s = 60.0;
  const NetworkResult result = simulate_network(matrix, options);
  // c0: user0 holds 2 of 3 slots; c1: user1 alone.
  const double c0 = result.per_channel_bps[0];
  const double c1 = result.per_channel_bps[1];
  EXPECT_NEAR(result.per_user_bps[0], c0 * 2.0 / 3.0, 0.02 * c0);
  EXPECT_NEAR(result.per_user_bps[1], c0 / 3.0 + c1, 0.02 * (c0 + c1));
}

TEST(NetworkSim, ChannelsAreIndependentGivenSeparateSeeds) {
  // Identical loads on two channels give statistically similar (not
  // identical) throughputs.
  const GameConfig config(2, 2, 2);
  const auto matrix =
      StrategyMatrix::from_rows(config, {{1, 1}, {1, 1}});
  const NetworkResult result = simulate_network(matrix, quick_dcf(20.0));
  EXPECT_NE(result.per_channel_bps[0], result.per_channel_bps[1]);
  EXPECT_NEAR(result.per_channel_bps[0], result.per_channel_bps[1],
              0.05 * result.per_channel_bps[0]);
}

TEST(MeasuredRateTable, MatchesBianchiShape) {
  const DcfParameters params = DcfParameters::bianchi_fhss();
  const auto table = measure_dcf_rate_table(params, 6, 15.0, 3);
  ASSERT_EQ(table.size(), 6u);
  const mrca::BianchiDcfModel model(params);
  for (int k = 1; k <= 6; ++k) {
    const double predicted =
        model.saturation_throughput(k).throughput_bps / 1e6;
    EXPECT_NEAR(table[static_cast<std::size_t>(k - 1)], predicted,
                0.06 * predicted)
        << "k=" << k;
  }
}

TEST(MeasuredRateTable, WrapsIntoValidRateFunction) {
  const auto rate =
      measured_dcf_rate(DcfParameters::bianchi_fhss(), 5, 8.0, 4);
  EXPECT_NO_THROW(rate->validate_non_increasing(10));
  EXPECT_DOUBLE_EQ(rate->rate(0), 0.0);
  EXPECT_GT(rate->rate(1), 0.0);
}

TEST(MeasuredRateTable, RejectsBadArguments) {
  EXPECT_THROW(
      measure_dcf_rate_table(DcfParameters::bianchi_fhss(), 0, 1.0, 1),
      std::invalid_argument);
}

TEST(NetworkSim, RtsCtsModeFlowsThroughTheHarness) {
  // The access-mode knob reaches every simulated channel: RTS/CTS carries
  // more than basic access at heavy per-channel contention.
  const GameConfig config(4, 1, 1);  // 4 radios stacked on one channel
  const auto matrix =
      StrategyMatrix::from_rows(config, {{1}, {1}, {1}, {1}});
  NetworkOptions basic = quick_dcf(20.0);
  NetworkOptions rts = quick_dcf(20.0);
  rts.dcf.access_mode = mrca::DcfAccessMode::kRtsCts;
  // Use many stations' worth of contention by re-simulating with each mode.
  const NetworkResult basic_result = simulate_network(matrix, basic);
  const NetworkResult rts_result = simulate_network(matrix, rts);
  EXPECT_GT(basic_result.total_bps(), 0.0);
  EXPECT_GT(rts_result.total_bps(), 0.0);
  // At n=4 the two are close; just assert both are sane and distinct modes
  // actually ran (durations differ per exchange, so totals differ).
  EXPECT_NE(basic_result.total_bps(), rts_result.total_bps());
}

}  // namespace
}  // namespace mrca::sim
