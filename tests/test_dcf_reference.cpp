// The DCF station's computed countdown against the per-slot reference
// model (reference_dcf.h): on every case, each station's statistics, the
// medium's busy time and the trace must agree exactly. BACKOFF_FREEZE lines
// are left out of the trace comparison: the reference logs a freeze only
// for a countdown event cancelled by the busy start, which depends on the
// order of events within one tick, while DcfStation logs every armed
// station whose countdown the busy start cut short.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mac/dcf_parameters.h"
#include "reference_dcf.h"
#include "sim/mac_dcf.h"
#include "sim/trace.h"

namespace mrca::sim {
namespace {

using testing::ReferenceDcfChannelSim;
using testing::ReferenceDcfStation;

enum class Load { kSaturated, kLight, kHeavy, kMixed };

const char* load_name(Load load) {
  switch (load) {
    case Load::kSaturated: return "saturated";
    case Load::kLight: return "light";
    case Load::kHeavy: return "heavy";
    case Load::kMixed: return "mixed";
  }
  return "?";
}

TrafficOptions poisson(double rate_fps, std::size_t capacity) {
  TrafficOptions traffic;
  traffic.saturated = false;
  traffic.arrival_rate_fps = rate_fps;
  traffic.queue_capacity = capacity;
  return traffic;
}

// Light load leaves the channel mostly idle (stations start contention on
// arrival); heavy load overflows short queues (drops).
TrafficOptions light() { return poisson(6.0, 200); }
TrafficOptions heavy() { return poisson(180.0, 8); }

/// Station s: saturated, light, heavy, saturated, ...
std::vector<TrafficOptions> mixed_traffic(int stations) {
  std::vector<TrafficOptions> traffic;
  for (int s = 0; s < stations; ++s) {
    traffic.push_back(s % 3 == 0 ? TrafficOptions{}
                                 : (s % 3 == 1 ? light() : heavy()));
  }
  return traffic;
}

/// DcfChannelSim's wiring with one TrafficOptions per station, for either
/// model (the reference stations leave the timer idle).
template <typename Station>
class MixedChannel {
 public:
  MixedChannel(const DcfParameters& params,
               const std::vector<TrafficOptions>& traffic,
               std::uint64_t seed) {
    Rng master(seed);
    for (const TrafficOptions& options : traffic) {
      if constexpr (std::is_same_v<Station, DcfStation>) {
        stations_.push_back(std::make_unique<Station>(
            simulator_, medium_, timer_, params, master.split(), options));
      } else {
        stations_.push_back(std::make_unique<Station>(
            simulator_, medium_, params, master.split(), options));
      }
    }
    for (const auto& station : stations_) station->start();
  }

  void attach_trace(TraceRecorder& trace) {
    medium_.set_trace(&trace);
    for (std::size_t s = 0; s < stations_.size(); ++s) {
      stations_[s]->set_trace(&trace, static_cast<int>(s));
    }
  }
  void run(double seconds) {
    simulator_.run_until(simulator_.now() + from_seconds(seconds));
  }
  int num_stations() const { return static_cast<int>(stations_.size()); }
  const StationStats& station_stats(int station) const {
    return stations_[static_cast<std::size_t>(station)]->stats();
  }
  double medium_busy_fraction() const {
    return medium_.busy_fraction(simulator_.now());
  }

 private:
  Simulator simulator_;
  Medium medium_{simulator_};
  BackoffTimer timer_{simulator_, medium_};
  std::vector<std::unique_ptr<Station>> stations_;
};

struct Outcome {
  std::vector<StationStats> stats;
  double busy_fraction = 0.0;
  std::string trace;  ///< without BACKOFF_FREEZE lines
  std::size_t trace_dropped = 0;
  /// BACKOFF_RESUME lines that repeat an earlier (tick, station) pair.
  std::size_t doubled_resumes = 0;
};

std::string without_freezes(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("BACKOFF_FREEZE") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Three run() calls whose lengths are not whole 50 us slots.
constexpr double kRunSplits[] = {0.3137171, 0.4500033, 0.6109981};

template <typename Channel>
Outcome run_traced(Channel& channel) {
  TraceRecorder trace;
  channel.attach_trace(trace);
  for (const double seconds : kRunSplits) channel.run(seconds);
  Outcome outcome;
  for (int s = 0; s < channel.num_stations(); ++s) {
    outcome.stats.push_back(channel.station_stats(s));
  }
  outcome.busy_fraction = channel.medium_busy_fraction();
  outcome.trace = without_freezes(trace.to_text());
  outcome.trace_dropped = trace.dropped();
  std::set<std::pair<SimTime, int>> resumed;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kBackoffResumed &&
        !resumed.emplace(event.time, event.station).second) {
      ++outcome.doubled_resumes;
    }
  }
  return outcome;
}

template <typename Channel, typename ReferenceChannel>
void expect_same(Channel& channel, ReferenceChannel& reference) {
  const Outcome got = run_traced(channel);
  const Outcome want = run_traced(reference);
  ASSERT_EQ(got.stats.size(), want.stats.size());
  std::uint64_t attempts = 0;
  for (std::size_t s = 0; s < want.stats.size(); ++s) {
    SCOPED_TRACE("station " + std::to_string(s));
    const StationStats& a = got.stats[s];
    const StationStats& b = want.stats[s];
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.payload_bits, b.payload_bits);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.delay_s.count(), b.delay_s.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.delay_s.mean()),
              std::bit_cast<std::uint64_t>(b.delay_s.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.delay_s.variance()),
              std::bit_cast<std::uint64_t>(b.delay_s.variance()));
    attempts += b.attempts;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.busy_fraction),
            std::bit_cast<std::uint64_t>(want.busy_fraction));
  EXPECT_EQ(got.trace_dropped, 0u);
  EXPECT_EQ(want.trace_dropped, 0u);
  // A station arms once per idle start, never twice at one tick.
  EXPECT_EQ(got.doubled_resumes, 0u);
  EXPECT_EQ(want.doubled_resumes, 0u);
  EXPECT_TRUE(got.trace == want.trace) << "traces differ";
  EXPECT_GT(attempts, 0u);  // the case exercised the MAC
}

DcfParameters params(DcfAccessMode mode) {
  DcfParameters params = DcfParameters::bianchi_fhss();
  params.access_mode = mode;
  return params;
}

TEST(DcfReference, ComputedCountdownMatchesPerSlotModel) {
  for (const DcfAccessMode mode :
       {DcfAccessMode::kBasic, DcfAccessMode::kRtsCts}) {
    for (const int n : {1, 2, 3, 5, 10, 40}) {
      for (const Load load :
           {Load::kSaturated, Load::kLight, Load::kHeavy, Load::kMixed}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          SCOPED_TRACE(std::string(mode == DcfAccessMode::kBasic ? "basic"
                                                                 : "rts") +
                       " n=" + std::to_string(n) + " " + load_name(load) +
                       " seed=" + std::to_string(seed));
          if (load == Load::kMixed) {
            MixedChannel<DcfStation> channel(params(mode), mixed_traffic(n),
                                             seed);
            MixedChannel<ReferenceDcfStation> reference(
                params(mode), mixed_traffic(n), seed);
            expect_same(channel, reference);
            continue;
          }
          const TrafficOptions traffic = load == Load::kSaturated
                                             ? TrafficOptions{}
                                             : (load == Load::kLight
                                                    ? light()
                                                    : heavy());
          DcfChannelSim channel(params(mode), n, seed, traffic);
          ReferenceDcfChannelSim reference(params(mode), n, seed, traffic);
          expect_same(channel, reference);
        }
      }
    }
  }
}

TEST(DcfReference, TimerFiresFarFewerEventsThanPerSlotCountdown) {
  // The saving the per-channel timer exists for, as counts: the per-slot
  // model fires one event per station per idle slot, the timer one per
  // channel per backoff expiry.
  const auto events_per_attempt = [](const auto& channel) {
    std::uint64_t attempts = 0;
    for (int s = 0; s < channel.num_stations(); ++s) {
      attempts += channel.station_stats(s).attempts;
    }
    return static_cast<double>(channel.events_processed()) /
           static_cast<double>(attempts);
  };
  const DcfParameters basic = params(DcfAccessMode::kBasic);
  ReferenceDcfChannelSim per_slot(basic, 40, 9);
  DcfChannelSim timer(basic, 40, 9);
  per_slot.run(1.0);
  timer.run(1.0);
  EXPECT_GT(events_per_attempt(per_slot), 4.0 * events_per_attempt(timer));
}

}  // namespace
}  // namespace mrca::sim
