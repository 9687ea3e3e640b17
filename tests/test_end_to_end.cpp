// End-to-end pipelines: analytical MAC model -> game -> Algorithm 1 -> NE
// verification -> discrete-event simulation of the resulting allocation,
// closing the loop the paper's model assumes.
#include <gtest/gtest.h>

#include "core/alloc/sequential.h"
#include "core/analysis/efficiency.h"
#include "core/analysis/nash.h"
#include "mac/bianchi.h"
#include "mac/tdma.h"
#include "sim/network.h"
#include "test_util.h"

namespace mrca {
namespace {

TEST(EndToEnd, BianchiPracticalRateGameReachesNash) {
  const BianchiDcfModel model(DcfParameters::bianchi_fhss());
  const GameConfig config(4, 3, 2);
  const GameModel game(config,
                       model.make_practical_rate(config.total_radios()));
  const StrategyMatrix ne = sequential_allocation(game);
  EXPECT_TRUE(is_nash_equilibrium(game, ne));
  EXPECT_LE(ne.max_load() - ne.min_load(), 1);
  // Practical CSMA/CA is strictly decreasing: the equilibrium is NOT
  // system-optimal and the PoA quantifies the gap.
  EXPECT_GT(price_of_anarchy(game), 1.0);
}

TEST(EndToEnd, TdmaGameNashIsSystemOptimal) {
  const TdmaModel tdma{TdmaParameters{}};
  const GameConfig config(5, 4, 3);
  const GameModel game(config, tdma.make_rate());
  const StrategyMatrix ne = sequential_allocation(game);
  EXPECT_TRUE(is_nash_equilibrium(game, ne));
  EXPECT_NEAR(price_of_anarchy(game), 1.0, 1e-12);
  EXPECT_NEAR(game.welfare(ne), game.optimal_welfare(), 1e-9);
}

TEST(EndToEnd, SimulatedThroughputMatchesGameUtilitiesDcf) {
  // Predict per-user rates with the Bianchi-backed rate function, then
  // simulate the same allocation with the event-driven DCF and compare.
  const DcfParameters params = DcfParameters::bianchi_fhss();
  const BianchiDcfModel model(params);
  const GameConfig config(3, 2, 2);
  const GameModel game(config,
                       model.make_practical_rate(config.total_radios()));
  const StrategyMatrix ne = sequential_allocation(game);

  sim::NetworkOptions options;
  options.mac = sim::MacKind::kDcf;
  options.dcf = params;
  options.duration_s = 30.0;
  options.seed = 12;
  const sim::NetworkResult measured = sim::simulate_network(ne, options);

  for (UserId i = 0; i < config.num_users; ++i) {
    const double predicted_mbps = game.utility(ne, i);
    const double measured_mbps = measured.per_user_bps[i] / 1e6;
    EXPECT_NEAR(measured_mbps, predicted_mbps, 0.07 * predicted_mbps)
        << "user " << i;
  }
}

TEST(EndToEnd, SimulatedThroughputMatchesGameUtilitiesTdma) {
  const TdmaModel tdma{TdmaParameters{}};
  const GameConfig config(4, 3, 2);
  const GameModel game(config, tdma.make_rate());
  const StrategyMatrix ne = sequential_allocation(game);

  sim::NetworkOptions options;
  options.mac = sim::MacKind::kTdma;
  options.duration_s = 60.0;
  const sim::NetworkResult measured = sim::simulate_network(ne, options);

  for (UserId i = 0; i < config.num_users; ++i) {
    const double predicted_mbps = game.utility(ne, i);
    const double measured_mbps = measured.per_user_bps[i] / 1e6;
    EXPECT_NEAR(measured_mbps, predicted_mbps, 0.03 * predicted_mbps)
        << "user " << i;
  }
}

TEST(EndToEnd, MeasuredRateTableDrivesTheSameEquilibriumStructure) {
  // Plug the DES-measured R(k) into the game: equilibrium structure (load
  // balancing, stability) is preserved — the paper's conclusions do not
  // hinge on the analytical idealization.
  const DcfParameters params = DcfParameters::bianchi_fhss();
  const GameConfig config(4, 3, 2);
  const auto measured_rate =
      sim::measured_dcf_rate(params, config.total_radios(), 10.0, 21);
  const GameModel game(config, measured_rate);
  const StrategyMatrix ne = sequential_allocation(game);
  EXPECT_TRUE(is_nash_equilibrium(game, ne));
  EXPECT_LE(ne.max_load() - ne.min_load(), 1);
}

TEST(EndToEnd, WelfarePredictionMatchesSimulatedTotal) {
  const DcfParameters params = DcfParameters::bianchi_fhss();
  const BianchiDcfModel model(params);
  const GameConfig config(4, 3, 2);
  const GameModel game(config,
                       model.make_practical_rate(config.total_radios()));
  const StrategyMatrix ne = sequential_allocation(game);

  sim::NetworkOptions options;
  options.dcf = params;
  options.duration_s = 30.0;
  options.seed = 77;
  const sim::NetworkResult measured = sim::simulate_network(ne, options);
  const double predicted = game.welfare(ne);
  EXPECT_NEAR(measured.total_bps() / 1e6, predicted, 0.05 * predicted);
}

}  // namespace
}  // namespace mrca
