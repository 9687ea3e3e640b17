// Reference per-slot model of the DCF MAC.
//
// The straightforward event-driven station: after DIFS its backoff counter
// decrements through one simulator event per idle slot, and a busy start
// cancels every pending countdown event except one at the very tick of the
// busy start (that slot completed while the medium was still idle, so it
// still fires: simultaneous expiry = collision). DcfStation computes the
// same countdown arithmetically behind one backoff event per channel; a
// channel that agrees with this reference on every station's statistics,
// the medium's busy time and the trace has the arithmetic freeze checked
// against an independent evaluation. The station's logic is the former
// DcfStation's, statement for statement; the channel keeps only what the
// tests read, plus events_processed().
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "mac/dcf_parameters.h"
#include "sim/mac_dcf.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace mrca::testing {

using sim::EventId;
using sim::kInvalidEvent;
using sim::Medium;
using sim::MediumListener;
using sim::SimTime;
using sim::Simulator;
using sim::StationStats;
using sim::TraceEventKind;
using sim::TraceRecorder;
using sim::TrafficOptions;
using sim::TxListener;

class ReferenceDcfStation final : public MediumListener, public TxListener {
 public:
  ReferenceDcfStation(Simulator& simulator, Medium& medium,
                      const DcfParameters& params, Rng rng,
                      TrafficOptions traffic = {});

  ReferenceDcfStation(const ReferenceDcfStation&) = delete;
  ReferenceDcfStation& operator=(const ReferenceDcfStation&) = delete;

  /// Arms the station at the current simulation time (medium must be idle).
  void start();

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
  bool has_traffic() const noexcept {
    return traffic_.saturated || !queue_.empty();
  }
  void schedule_next_arrival();
  void on_arrival();
  void arm_if_ready();
  void difs_elapsed();
  void slot_elapsed();
  void begin_transmission();
  void draw_backoff();
  int contention_window() const;
  void cancel_pending();
  void schedule_pending(SimTime delay, bool is_difs);

  Simulator& simulator_;
  Medium& medium_;
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
  bool medium_busy_ = false;
  bool transmitting_ = false;

  EventId pending_event_ = kInvalidEvent;
  SimTime pending_time_ = 0;

  TrafficOptions traffic_;
  std::deque<SimTime> queue_;  ///< enqueue timestamps (unsaturated mode)

  TraceRecorder* trace_recorder_ = nullptr;
  int trace_id_ = -1;

  StationStats stats_;
};

/// One channel with `stations` reference stations, seeded like
/// DcfChannelSim.
class ReferenceDcfChannelSim {
 public:
  ReferenceDcfChannelSim(const DcfParameters& params, int stations,
                         std::uint64_t seed, TrafficOptions traffic = {});

  void run(double seconds);
  void attach_trace(TraceRecorder& trace);

  int num_stations() const noexcept {
    return static_cast<int>(stations_.size());
  }
  const StationStats& station_stats(int station) const {
    return stations_.at(static_cast<std::size_t>(station))->stats();
  }
  double medium_busy_fraction() const {
    return medium_->busy_fraction(simulator_.now());
  }
  std::size_t events_processed() const noexcept {
    return simulator_.events_processed();
  }

 private:
  DcfParameters params_;
  Simulator simulator_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<ReferenceDcfStation>> stations_;
};

inline ReferenceDcfStation::ReferenceDcfStation(Simulator& simulator,
                                                Medium& medium,
                                                const DcfParameters& params,
                                                Rng rng,
                                                TrafficOptions traffic)
    : simulator_(simulator),
      medium_(medium),
      params_(params),
      rng_(rng),
      traffic_(traffic) {
  params_.validate();
  if (!traffic_.saturated && traffic_.arrival_rate_fps <= 0.0) {
    throw std::invalid_argument(
        "DcfStation: unsaturated mode needs a positive arrival rate");
  }
  if (!traffic_.saturated && traffic_.queue_capacity == 0) {
    throw std::invalid_argument(
        "DcfStation: queue capacity must be positive");
  }
  difs_ = sim::from_seconds(params_.difs_s);
  sifs_ = sim::from_seconds(params_.sifs_s);
  slot_ = sim::from_seconds(params_.slot_time_s);
  prop_ = sim::from_seconds(params_.prop_delay_s);
  data_duration_ = sim::from_seconds(params_.header_time_s() +
                                     params_.payload_time_s()) +
                   prop_;
  ack_duration_ = sim::from_seconds(params_.ack_time_s()) + prop_;
  rts_duration_ = sim::from_seconds(params_.rts_time_s()) + prop_;
  cts_duration_ = sim::from_seconds(params_.cts_time_s()) + prop_;
  medium_.attach(this);
}

inline void ReferenceDcfStation::start() {
  if (!medium_.is_idle()) {
    throw std::logic_error("DcfStation::start: medium must be idle");
  }
  draw_backoff();
  if (traffic_.saturated) {
    schedule_pending(difs_, /*is_difs=*/true);
  } else {
    schedule_next_arrival();
  }
}

inline void ReferenceDcfStation::schedule_next_arrival() {
  const double gap_s = rng_.exponential(traffic_.arrival_rate_fps);
  simulator_.schedule_in(sim::from_seconds(gap_s), [this] { on_arrival(); });
}

inline void ReferenceDcfStation::on_arrival() {
  ++stats_.arrivals;
  if (trace_recorder_) {
    trace_recorder_->record(simulator_.now(), TraceEventKind::kFrameArrival,
                            trace_id_);
  }
  if (queue_.size() >= traffic_.queue_capacity) {
    ++stats_.drops;
    if (trace_recorder_) {
      trace_recorder_->record(simulator_.now(), TraceEventKind::kFrameDropped,
                              trace_id_);
    }
  } else {
    queue_.push_back(simulator_.now());
    if (queue_.size() == 1 && !transmitting_ &&
        pending_event_ == kInvalidEvent && !medium_busy_) {
      schedule_pending(difs_, /*is_difs=*/true);
    }
  }
  schedule_next_arrival();
}

inline void ReferenceDcfStation::arm_if_ready() {
  if (has_traffic()) {
    schedule_pending(difs_, /*is_difs=*/true);
    if (trace_recorder_) {
      trace_recorder_->record(simulator_.now(),
                              TraceEventKind::kBackoffResumed, trace_id_);
    }
  }
}

inline int ReferenceDcfStation::contention_window() const {
  const int stage = std::min(backoff_stage_, params_.max_backoff_stage);
  return params_.cw_min << stage;
}

inline void ReferenceDcfStation::draw_backoff() {
  backoff_counter_ =
      static_cast<int>(rng_.uniform_int(0, contention_window() - 1));
}

inline void ReferenceDcfStation::cancel_pending() {
  if (pending_event_ != kInvalidEvent) {
    simulator_.cancel(pending_event_);
    pending_event_ = kInvalidEvent;
  }
}

inline void ReferenceDcfStation::schedule_pending(SimTime delay,
                                                  bool is_difs) {
  cancel_pending();
  pending_time_ = simulator_.now() + delay;
  pending_event_ = simulator_.schedule_at(pending_time_, [this, is_difs] {
    pending_event_ = kInvalidEvent;
    if (is_difs) {
      difs_elapsed();
    } else {
      slot_elapsed();
    }
  });
}

inline void ReferenceDcfStation::on_busy_start() {
  medium_busy_ = true;
  // Drop countdown events strictly in the future; an event at exactly this
  // tick represents the slot boundary that just completed while the medium
  // was still idle, and must still fire (simultaneous expiry = collision).
  if (pending_event_ != kInvalidEvent && pending_time_ > simulator_.now()) {
    cancel_pending();
    if (trace_recorder_ && !transmitting_) {
      trace_recorder_->record(simulator_.now(),
                              TraceEventKind::kBackoffFrozen, trace_id_);
    }
  }
}

inline void ReferenceDcfStation::on_idle_start() {
  medium_busy_ = false;
  if (transmitting_) return;  // the idle start after our frame arms us
  arm_if_ready();
}

inline void ReferenceDcfStation::difs_elapsed() {
  if (backoff_counter_ == 0) {
    begin_transmission();
    return;
  }
  if (!medium_busy_) {
    schedule_pending(slot_, /*is_difs=*/false);
  }
}

inline void ReferenceDcfStation::slot_elapsed() {
  --backoff_counter_;
  if (backoff_counter_ == 0) {
    begin_transmission();
    return;
  }
  if (!medium_busy_) {
    schedule_pending(slot_, /*is_difs=*/false);
  }
}

inline void ReferenceDcfStation::begin_transmission() {
  cancel_pending();
  transmitting_ = true;
  ++stats_.attempts;
  if (trace_recorder_) {
    trace_recorder_->record(simulator_.now(), TraceEventKind::kTxStart,
                            trace_id_);
  }
  medium_.start_transmission(this,
                             params_.access_mode == DcfAccessMode::kBasic
                                 ? data_duration_
                                 : rts_duration_);
}

inline void ReferenceDcfStation::on_transmission_end(bool success) {
  transmitting_ = false;
  if (trace_recorder_) {
    trace_recorder_->record(simulator_.now(),
                            success ? TraceEventKind::kTxEndSuccess
                                    : TraceEventKind::kTxEndCollision,
                            trace_id_);
  }
  if (success) {
    ++stats_.successes;
    stats_.payload_bits += static_cast<std::uint64_t>(params_.payload_bits);
    backoff_stage_ = 0;
    if (!traffic_.saturated) {
      stats_.delay_s.add(sim::to_seconds(simulator_.now() - queue_.front()));
      queue_.pop_front();
    }
    Medium& medium = medium_;
    if (params_.access_mode == DcfAccessMode::kBasic) {
      const SimTime ack_duration = ack_duration_;
      simulator_.schedule_in(sifs_, [&medium, ack_duration] {
        medium.start_transmission(nullptr, ack_duration);
      });
    } else {
      const SimTime cts_at = sifs_;
      const SimTime data_at = cts_at + cts_duration_ + sifs_;
      const SimTime ack_at = data_at + data_duration_ + sifs_;
      const SimTime cts_duration = cts_duration_;
      const SimTime data_duration = data_duration_;
      const SimTime ack_duration = ack_duration_;
      simulator_.schedule_in(cts_at, [&medium, cts_duration] {
        medium.start_transmission(nullptr, cts_duration);
      });
      simulator_.schedule_in(data_at, [&medium, data_duration] {
        medium.start_transmission(nullptr, data_duration);
      });
      simulator_.schedule_in(ack_at, [&medium, ack_duration] {
        medium.start_transmission(nullptr, ack_duration);
      });
    }
  } else {
    ++stats_.collisions;
    backoff_stage_ = std::min(backoff_stage_ + 1, params_.max_backoff_stage);
  }
  draw_backoff();
}

inline ReferenceDcfChannelSim::ReferenceDcfChannelSim(
    const DcfParameters& params, int stations, std::uint64_t seed,
    TrafficOptions traffic)
    : params_(params), medium_(std::make_unique<Medium>(simulator_)) {
  if (stations < 1) {
    throw std::invalid_argument("DcfChannelSim: need at least one station");
  }
  Rng master(seed);
  stations_.reserve(static_cast<std::size_t>(stations));
  for (int s = 0; s < stations; ++s) {
    stations_.push_back(std::make_unique<ReferenceDcfStation>(
        simulator_, *medium_, params_, master.split(), traffic));
  }
  for (const auto& station : stations_) station->start();
}

inline void ReferenceDcfChannelSim::attach_trace(TraceRecorder& trace) {
  medium_->set_trace(&trace);
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    stations_[s]->set_trace(&trace, static_cast<int>(s));
  }
}

inline void ReferenceDcfChannelSim::run(double seconds) {
  if (seconds < 0.0) {
    throw std::invalid_argument("DcfChannelSim::run: negative duration");
  }
  simulator_.run_until(simulator_.now() + sim::from_seconds(seconds));
}

}  // namespace mrca::testing
