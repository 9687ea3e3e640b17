#include "sim/mac_dcf.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/stats.h"
#include "mac/bianchi.h"

namespace mrca::sim {
namespace {

DcfParameters params() { return DcfParameters::bianchi_fhss(); }

TEST(DcfChannelSim, RejectsBadInputs) {
  EXPECT_THROW(DcfChannelSim(params(), 0, 1), std::invalid_argument);
  DcfChannelSim sim(params(), 1, 1);
  EXPECT_THROW(sim.run(-1.0), std::invalid_argument);
}

TEST(DcfChannelSim, SingleStationNeverCollides) {
  DcfChannelSim sim(params(), 1, 7);
  sim.run(5.0);
  const StationStats& stats = sim.station_stats(0);
  EXPECT_GT(stats.successes, 0u);
  EXPECT_EQ(stats.collisions, 0u);
  // At most one frame can be in flight (un-adjudicated) when the run ends.
  EXPECT_LE(stats.attempts - stats.successes, 1u);
}

TEST(DcfChannelSim, SingleStationMatchesBianchiClosely) {
  // n=1 is collision-free, so the only model/simulation differences are
  // slot-boundary discretization: agreement should be within ~2%.
  DcfChannelSim sim(params(), 1, 11);
  sim.run(30.0);
  const BianchiDcfModel model(params());
  const double predicted = model.saturation_throughput(1).throughput_bps;
  EXPECT_NEAR(sim.total_throughput_bps(), predicted, 0.02 * predicted);
}

TEST(DcfChannelSim, ThroughputMatchesBianchiUnderContention) {
  const BianchiDcfModel model(params());
  for (int n : {2, 5, 10}) {
    DcfChannelSim sim(params(), n, 100 + static_cast<std::uint64_t>(n));
    sim.run(40.0);
    const double predicted = model.saturation_throughput(n).throughput_bps;
    const double measured = sim.total_throughput_bps();
    // Bianchi's chain model vs an event-driven MAC: a few percent.
    EXPECT_NEAR(measured, predicted, 0.05 * predicted) << "n=" << n;
  }
}

TEST(DcfChannelSim, CollisionProbabilityMatchesBianchi) {
  const BianchiDcfModel model(params());
  for (int n : {2, 5, 10}) {
    DcfChannelSim sim(params(), n, 17 + static_cast<std::uint64_t>(n));
    sim.run(40.0);
    const double predicted =
        model.saturation_throughput(n).collision_probability;
    EXPECT_NEAR(sim.collision_probability(), predicted,
                std::max(0.02, 0.15 * predicted))
        << "n=" << n;
  }
}

TEST(DcfChannelSim, FairShareAmongStations) {
  // The paper's equal-sharing assumption: long-run per-station throughputs
  // are near-identical (Jain index ~ 1).
  DcfChannelSim sim(params(), 6, 23);
  sim.run(60.0);
  const auto shares = sim.per_station_throughput_bps();
  EXPECT_GT(jain_fairness(shares), 0.99);
}

TEST(DcfChannelSim, ThroughputDecreasesWithStations) {
  // R(k) decreasing in the practical-CSMA regime for k >= 2 (Figure 3);
  // the n=1 -> 2 rise is covered by the Bianchi model tests.
  double previous = 1e18;
  for (int n : {2, 4, 8, 16}) {
    DcfChannelSim sim(params(), n, 31 + static_cast<std::uint64_t>(n));
    sim.run(25.0);
    const double total = sim.total_throughput_bps();
    EXPECT_LT(total, previous * 1.005) << "n=" << n;  // noise headroom
    previous = total;
  }
}

TEST(DcfChannelSim, DeterministicForEqualSeeds) {
  DcfChannelSim a(params(), 4, 99);
  DcfChannelSim b(params(), 4, 99);
  a.run(5.0);
  b.run(5.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a.station_stats(s).successes, b.station_stats(s).successes);
    EXPECT_EQ(a.station_stats(s).collisions, b.station_stats(s).collisions);
    EXPECT_EQ(a.station_stats(s).attempts, b.station_stats(s).attempts);
  }
}

TEST(DcfChannelSim, DifferentSeedsDifferButAgreeOnAverage) {
  DcfChannelSim a(params(), 4, 1);
  DcfChannelSim b(params(), 4, 2);
  a.run(20.0);
  b.run(20.0);
  const double ta = a.total_throughput_bps();
  const double tb = b.total_throughput_bps();
  EXPECT_NE(a.station_stats(0).successes, b.station_stats(0).successes);
  EXPECT_NEAR(ta, tb, 0.05 * ta);
}

TEST(DcfChannelSim, RunIsResumable) {
  DcfChannelSim sim(params(), 3, 5);
  sim.run(2.0);
  const auto early = sim.station_stats(0).successes;
  sim.run(2.0);
  EXPECT_GT(sim.station_stats(0).successes, early);
  EXPECT_NEAR(sim.elapsed_seconds(), 4.0, 1e-9);
}

TEST(DcfChannelSim, MediumBusyFractionIsSane) {
  DcfChannelSim sim(params(), 5, 13);
  sim.run(10.0);
  const double busy = sim.medium_busy_fraction();
  EXPECT_GT(busy, 0.5);   // saturated channel is mostly busy
  EXPECT_LE(busy, 1.0);
}

TEST(DcfChannelSim, EventsPerAttemptStayBoundedInStationCount) {
  // The replay's work in simulator events, which CI can pin exactly: a
  // successful basic attempt fires its backoff expiry, data end, ACK start
  // and ACK end (RTS/CTS adds RTS end, CTS start/end, data start); stations
  // colliding share one expiry. No event fires per idle slot or per
  // station, so the ratio cannot grow with the station count (a per-slot
  // countdown fires 19 to 74 events per attempt over this range).
  for (const auto& [mode, bound] :
       {std::pair{DcfAccessMode::kBasic, 4.0},
        std::pair{DcfAccessMode::kRtsCts, 8.0}}) {
    DcfParameters p = params();
    p.access_mode = mode;
    double first = 0.0;
    double last = 0.0;
    for (int n = 1; n <= 40; ++n) {
      DcfChannelSim sim(p, n, 300 + static_cast<std::uint64_t>(n));
      sim.run(1.0);
      std::uint64_t attempts = 0;
      for (int s = 0; s < n; ++s) attempts += sim.station_stats(s).attempts;
      ASSERT_GT(attempts, 0u);
      const double per_attempt = static_cast<double>(sim.events_processed()) /
                                 static_cast<double>(attempts);
      EXPECT_LE(per_attempt, bound) << "n=" << n;
      if (n == 1) first = per_attempt;
      last = per_attempt;
    }
    EXPECT_LT(last, first);
  }
}

TEST(StationStats, DerivedQuantities) {
  StationStats stats;
  stats.attempts = 10;
  stats.collisions = 4;
  stats.successes = 6;
  stats.payload_bits = 6000;
  EXPECT_DOUBLE_EQ(stats.collision_probability(), 0.4);
  EXPECT_DOUBLE_EQ(stats.throughput_bps(2.0), 3000.0);
  EXPECT_DOUBLE_EQ(StationStats{}.collision_probability(), 0.0);
  EXPECT_DOUBLE_EQ(StationStats{}.throughput_bps(0.0), 0.0);
}

}  // namespace
}  // namespace mrca::sim
