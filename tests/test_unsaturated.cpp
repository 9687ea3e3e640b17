// Unsaturated (Poisson offered load) DCF stations: queueing, delay and the
// offered-load -> saturation transition.
#include <gtest/gtest.h>

#include "mac/bianchi.h"
#include "sim/mac_dcf.h"

namespace mrca::sim {
namespace {

DcfParameters params() { return DcfParameters::bianchi_fhss(); }

TrafficOptions poisson(double rate_fps, std::size_t capacity = 200) {
  TrafficOptions traffic;
  traffic.saturated = false;
  traffic.arrival_rate_fps = rate_fps;
  traffic.queue_capacity = capacity;
  return traffic;
}

TEST(Unsaturated, ValidatesTrafficOptions) {
  Simulator sim;
  Medium medium(sim);
  BackoffTimer timer(sim, medium);
  TrafficOptions bad;
  bad.saturated = false;
  bad.arrival_rate_fps = 0.0;
  EXPECT_THROW(DcfStation(sim, medium, timer, params(), Rng(1), bad),
               std::invalid_argument);
  bad.arrival_rate_fps = 10.0;
  bad.queue_capacity = 0;
  EXPECT_THROW(DcfStation(sim, medium, timer, params(), Rng(1), bad),
               std::invalid_argument);
}

TEST(Unsaturated, LightLoadDeliversEverythingOffered) {
  // 2 stations at 5 frames/s each: far below the ~100 frames/s channel
  // capacity. Deliveries track arrivals and collisions are rare.
  DcfChannelSim channel(params(), 2, 71, poisson(5.0));
  channel.run(60.0);
  for (int s = 0; s < 2; ++s) {
    const StationStats& stats = channel.station_stats(s);
    EXPECT_GT(stats.arrivals, 200u);  // ~300 expected
    EXPECT_EQ(stats.drops, 0u);
    // The queue drains: at most a couple of frames in flight at the end.
    EXPECT_LE(stats.arrivals - stats.successes, 3u);
    EXPECT_LT(stats.collision_probability(), 0.05);
  }
}

TEST(Unsaturated, LightLoadThroughputMatchesOffered) {
  const double rate_fps = 8.0;
  DcfChannelSim channel(params(), 3, 72, poisson(rate_fps));
  channel.run(60.0);
  const double offered_bps =
      3 * rate_fps * static_cast<double>(params().payload_bits);
  EXPECT_NEAR(channel.total_throughput_bps(), offered_bps,
              0.08 * offered_bps);
}

TEST(Unsaturated, LightLoadDelayIsNearOneFrameTime) {
  // An almost-empty channel: delay ~ DIFS + mean backoff + frame time,
  // i.e. close to T_s (~9 ms) plus ~0.8 ms mean initial backoff.
  DcfChannelSim channel(params(), 1, 73, poisson(3.0));
  channel.run(80.0);
  const StationStats& stats = channel.station_stats(0);
  ASSERT_GT(stats.delay_s.count(), 100u);
  EXPECT_GT(stats.delay_s.mean(), 0.008);
  EXPECT_LT(stats.delay_s.mean(), 0.015);
}

TEST(Unsaturated, HeavyLoadApproachesSaturationThroughput) {
  // Offered load far above capacity: the delivered total must approach the
  // saturated Bianchi value from below.
  const int n = 5;
  DcfChannelSim channel(params(), n, 74, poisson(200.0, 50));
  channel.run(40.0);
  const BianchiDcfModel model(params());
  const double saturated = model.saturation_throughput(n).throughput_bps;
  EXPECT_NEAR(channel.total_throughput_bps(), saturated, 0.06 * saturated);
}

TEST(Unsaturated, HeavyLoadDropsFrames) {
  DcfChannelSim channel(params(), 4, 75, poisson(150.0, 20));
  channel.run(30.0);
  std::uint64_t drops = 0;
  for (int s = 0; s < 4; ++s) drops += channel.station_stats(s).drops;
  EXPECT_GT(drops, 0u);
}

TEST(Unsaturated, DelayGrowsWithLoad) {
  DcfChannelSim light(params(), 3, 76, poisson(5.0));
  DcfChannelSim heavy(params(), 3, 77, poisson(40.0));
  light.run(60.0);
  heavy.run(60.0);
  EXPECT_GT(heavy.station_stats(0).delay_s.mean(),
            2.0 * light.station_stats(0).delay_s.mean());
}

TEST(Unsaturated, QueueBoundedUnderLightLoad) {
  DcfChannelSim channel(params(), 2, 78, poisson(4.0));
  channel.run(30.0);
  // No backlog at light load (checked via statistics: deliveries keep up).
  for (int s = 0; s < 2; ++s) {
    const StationStats& stats = channel.station_stats(s);
    EXPECT_LE(stats.arrivals - stats.successes - stats.drops, 3u);
  }
}

TEST(Unsaturated, DeterministicForEqualSeeds) {
  DcfChannelSim a(params(), 3, 99, poisson(20.0));
  DcfChannelSim b(params(), 3, 99, poisson(20.0));
  a.run(10.0);
  b.run(10.0);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.station_stats(s).arrivals, b.station_stats(s).arrivals);
    EXPECT_EQ(a.station_stats(s).successes, b.station_stats(s).successes);
  }
}

TEST(Unsaturated, MixedWithSaturatedStationsIsIndependentlyConfigured) {
  // Saturated default keeps old behavior intact next to the new mode.
  DcfChannelSim saturated(params(), 2, 100);
  saturated.run(5.0);
  EXPECT_EQ(saturated.station_stats(0).arrivals, 0u);  // no arrival process
  EXPECT_GT(saturated.station_stats(0).successes, 0u);
}

}  // namespace
}  // namespace mrca::sim
