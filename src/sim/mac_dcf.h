// Event-driven IEEE 802.11 DCF (CSMA/CA, basic access) on one channel —
// the "practical CSMA/CA" of the paper's Figure 3, simulated rather than
// modelled.
//
// Station behavior (saturated, i.e. always backlogged):
//   - after the medium has been idle for DIFS, the backoff counter
//     decrements once per idle slot; it freezes while the medium is busy.
//     The countdown is computed, not stepped: an armed station keeps its
//     counter and the instant its countdown starts (arm time + DIFS), so
//     it expires at countdown start + counter * slot; a busy start takes
//     the whole idle slots elapsed since countdown start off the counter;
//   - one backoff timer per channel holds a single simulator event at the
//     earliest expiry and starts every station that expires then, in
//     station order: simultaneous expiries at the same slot boundary
//     collide (exact integer timestamps);
//   - on success (no overlap), the receiver's ACK is modelled as a system
//     transmission SIFS after the data frame, and the contention window
//     resets to CW_min;
//   - on collision the window doubles, up to CW_min * 2^max_backoff_stage
//     (binary exponential backoff, Bianchi's W and m).
//
// Validation: experiments/fig3_dcf_sim compares the measured saturation
// throughput, and the test suite also the collision probability, against
// the Bianchi fixed-point model for the same parameters.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "mac/dcf_parameters.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace mrca::sim {

struct StationStats {
  std::uint64_t attempts = 0;    ///< frames put on the air
  std::uint64_t successes = 0;   ///< frames acknowledged
  std::uint64_t collisions = 0;  ///< frames lost to overlap
  std::uint64_t payload_bits = 0;
  std::uint64_t arrivals = 0;    ///< frames offered (unsaturated mode)
  std::uint64_t drops = 0;       ///< frames lost to queue overflow
  /// Sojourn time (enqueue -> delivery) in seconds, unsaturated mode only.
  RunningStats delay_s;

  double throughput_bps(double duration_s) const {
    return duration_s > 0.0
               ? static_cast<double>(payload_bits) / duration_s
               : 0.0;
  }
  /// Empirical conditional collision probability (per attempt).
  double collision_probability() const {
    return attempts > 0
               ? static_cast<double>(collisions) /
                     static_cast<double>(attempts)
               : 0.0;
  }
};

/// Traffic configuration for one station.
struct TrafficOptions {
  /// Saturated (always backlogged, Bianchi's regime) when true; otherwise
  /// frames arrive as a Poisson process and queue.
  bool saturated = true;
  /// Mean arrivals per second (unsaturated mode).
  double arrival_rate_fps = 0.0;
  /// Maximum queued frames before tail drop (unsaturated mode).
  std::size_t queue_capacity = 200;
};

class DcfStation;

/// The one backoff event of a channel: it sits at the earliest expiry
/// among the armed stations and, when it fires, starts each station
/// expiring then, in station order. Listens to the medium only to drop an
/// event a busy start has made moot.
class BackoffTimer final : public MediumListener {
 public:
  BackoffTimer(Simulator& simulator, Medium& medium);

  BackoffTimer(const BackoffTimer&) = delete;
  BackoffTimer& operator=(const BackoffTimer&) = delete;

  /// Registers a station; stations are started in registration order.
  void attach(DcfStation* station);

  /// An armed station expires at `expiry`; moves the event earlier if
  /// needed.
  void request(SimTime expiry);

  // MediumListener:
  void on_busy_start() override;
  void on_idle_start() override {}

 private:
  void fire();

  Simulator& simulator_;
  std::vector<DcfStation*> stations_;
  EventId event_ = kInvalidEvent;
  SimTime event_time_ = 0;
};

class DcfStation final : public MediumListener, public TxListener {
 public:
  DcfStation(Simulator& simulator, Medium& medium, BackoffTimer& timer,
             const DcfParameters& params, Rng rng,
             TrafficOptions traffic = {});

  DcfStation(const DcfStation&) = delete;
  DcfStation& operator=(const DcfStation&) = delete;

  /// Arms the station at the current simulation time (medium must be idle).
  void start();

  /// Optional event tracing; `station_id` labels this station's events.
  void set_trace(TraceRecorder* trace, int station_id) noexcept {
    trace_recorder_ = trace;
    trace_id_ = station_id;
  }

  const StationStats& stats() const noexcept { return stats_; }

  // MediumListener:
  void on_busy_start() override;
  void on_idle_start() override;
  // TxListener:
  void on_transmission_end(bool success) override;

 private:
  friend class BackoffTimer;

  bool has_traffic() const noexcept {
    return traffic_.saturated || !queue_.empty();
  }
  /// When the countdown of an armed station reaches zero.
  SimTime expiry() const noexcept {
    return countdown_start_ + backoff_counter_ * slot_;
  }
  void schedule_next_arrival();
  void on_arrival();
  void arm();
  void arm_if_ready();
  void begin_transmission();
  void draw_backoff();
  int contention_window() const;

  Simulator& simulator_;
  Medium& medium_;
  BackoffTimer& timer_;
  DcfParameters params_;
  Rng rng_;

  // Precomputed durations (ns).
  SimTime difs_ = 0;
  SimTime sifs_ = 0;
  SimTime slot_ = 0;
  SimTime prop_ = 0;
  SimTime data_duration_ = 0;
  SimTime ack_duration_ = 0;
  SimTime rts_duration_ = 0;
  SimTime cts_duration_ = 0;

  int backoff_counter_ = 0;
  int backoff_stage_ = 0;
  /// Arm time + DIFS: the first idle slot boundary counts from here.
  SimTime countdown_start_ = 0;
  bool armed_ = false;
  bool medium_busy_ = false;
  bool transmitting_ = false;

  TrafficOptions traffic_;
  std::deque<SimTime> queue_;  ///< enqueue timestamps (unsaturated mode)

  TraceRecorder* trace_recorder_ = nullptr;
  int trace_id_ = -1;

  StationStats stats_;
};

/// One channel with `stations` DCF stations (saturated by default; pass
/// TrafficOptions for Poisson offered load).
class DcfChannelSim {
 public:
  DcfChannelSim(const DcfParameters& params, int stations,
                std::uint64_t seed, TrafficOptions traffic = {});

  /// Runs the channel for `seconds` of simulated time (resumable).
  void run(double seconds);

  /// Wires a trace recorder into the medium and every station.
  void attach_trace(TraceRecorder& trace);

  int num_stations() const noexcept { return static_cast<int>(stations_.size()); }
  const StationStats& station_stats(int station) const;
  double elapsed_seconds() const;

  /// Sum of per-station payload throughputs, bit/s.
  double total_throughput_bps() const;
  /// Per-station throughputs (for fairness analysis).
  std::vector<double> per_station_throughput_bps() const;
  /// Attempt-weighted empirical collision probability.
  double collision_probability() const;
  double medium_busy_fraction() const;
  /// Simulator events fired so far (the replay's unit of work).
  std::size_t events_processed() const noexcept {
    return simulator_.events_processed();
  }

 private:
  DcfParameters params_;
  Simulator simulator_;
  std::unique_ptr<Medium> medium_;
  std::unique_ptr<BackoffTimer> timer_;
  std::vector<std::unique_ptr<DcfStation>> stations_;
};

}  // namespace mrca::sim
