#include "sim/mac_dcf.h"

#include <algorithm>
#include <stdexcept>

namespace mrca::sim {

BackoffTimer::BackoffTimer(Simulator& simulator, Medium& medium)
    : simulator_(simulator) {
  medium.attach(this);
}

void BackoffTimer::attach(DcfStation* station) {
  stations_.push_back(station);
}

void BackoffTimer::request(SimTime expiry) {
  if (event_ != kInvalidEvent) {
    if (event_time_ <= expiry) return;
    simulator_.cancel(event_);
  }
  event_time_ = expiry;
  event_ = simulator_.schedule_at(expiry, [this] { fire(); });
}

void BackoffTimer::on_busy_start() {
  // Every armed station expiring later than now has just frozen. An event
  // at this very tick stays: its stations still transmit (and collide).
  if (event_ != kInvalidEvent && event_time_ > simulator_.now()) {
    simulator_.cancel(event_);
    event_ = kInvalidEvent;
  }
}

void BackoffTimer::fire() {
  event_ = kInvalidEvent;
  const SimTime now = simulator_.now();
  // The event sits at the earliest expiry, so some station transmits. Its
  // busy start freezes every station expiring later; those expiring now
  // stay armed and join the collision. That leaves no station armed: the
  // next arming, at the next idle start, requests the next event.
  for (DcfStation* station : stations_) {
    if (station->armed_ && station->expiry() == now) {
      station->begin_transmission();
    }
  }
}

DcfStation::DcfStation(Simulator& simulator, Medium& medium,
                       BackoffTimer& timer, const DcfParameters& params,
                       Rng rng, TrafficOptions traffic)
    : simulator_(simulator),
      medium_(medium),
      timer_(timer),
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
  difs_ = from_seconds(params_.difs_s);
  sifs_ = from_seconds(params_.sifs_s);
  slot_ = from_seconds(params_.slot_time_s);
  prop_ = from_seconds(params_.prop_delay_s);
  // Data airtime includes the propagation tail so a collision occupies
  // exactly Bianchi's T_c = H + P + delta before the DIFS resume.
  data_duration_ =
      from_seconds(params_.header_time_s() + params_.payload_time_s()) + prop_;
  ack_duration_ = from_seconds(params_.ack_time_s()) + prop_;
  rts_duration_ = from_seconds(params_.rts_time_s()) + prop_;
  cts_duration_ = from_seconds(params_.cts_time_s()) + prop_;
  medium_.attach(this);
  timer_.attach(this);
}

void DcfStation::start() {
  if (!medium_.is_idle()) {
    throw std::logic_error("DcfStation::start: medium must be idle");
  }
  draw_backoff();
  if (traffic_.saturated) {
    arm();
  } else {
    schedule_next_arrival();
  }
}

void DcfStation::schedule_next_arrival() {
  const double gap_s = rng_.exponential(traffic_.arrival_rate_fps);
  simulator_.schedule_in(from_seconds(gap_s), [this] { on_arrival(); });
}

void DcfStation::on_arrival() {
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
    // A frame arriving to an idle station (re)starts contention; an armed
    // or frozen or transmitting station just grows its queue.
    if (queue_.size() == 1 && !transmitting_ && !armed_ && !medium_busy_) {
      arm();
    }
  }
  schedule_next_arrival();
}

void DcfStation::arm() {
  countdown_start_ = simulator_.now() + difs_;
  armed_ = true;
  timer_.request(expiry());
}

void DcfStation::arm_if_ready() {
  if (has_traffic()) {
    arm();
    if (trace_recorder_) {
      trace_recorder_->record(simulator_.now(),
                              TraceEventKind::kBackoffResumed, trace_id_);
    }
  }
}

int DcfStation::contention_window() const {
  const int stage = std::min(backoff_stage_, params_.max_backoff_stage);
  return params_.cw_min << stage;
}

void DcfStation::draw_backoff() {
  backoff_counter_ =
      static_cast<int>(rng_.uniform_int(0, contention_window() - 1));
}

void DcfStation::on_busy_start() {
  medium_busy_ = true;
  const SimTime now = simulator_.now();
  // A station expiring at exactly this tick completed its last slot while
  // the medium was still idle: it stays armed and transmits now
  // (simultaneous expiry = collision).
  if (!armed_ || expiry() == now) return;
  // Freeze: the idle slots that completed since countdown start are spent.
  if (now >= countdown_start_) {
    backoff_counter_ -= static_cast<int>((now - countdown_start_) / slot_);
  }
  armed_ = false;
  if (trace_recorder_) {
    trace_recorder_->record(now, TraceEventKind::kBackoffFrozen, trace_id_);
  }
}

void DcfStation::on_idle_start() {
  medium_busy_ = false;
  if (transmitting_) return;  // the idle start after our frame arms us
  arm_if_ready();
}

void DcfStation::begin_transmission() {
  armed_ = false;
  backoff_counter_ = 0;
  transmitting_ = true;
  ++stats_.attempts;
  if (trace_recorder_) {
    trace_recorder_->record(simulator_.now(), TraceEventKind::kTxStart,
                            trace_id_);
  }
  // Basic access contends with the whole data frame; RTS/CTS contends with
  // the short RTS and reserves the medium for the rest of the exchange.
  medium_.start_transmission(this,
                             params_.access_mode == DcfAccessMode::kBasic
                                 ? data_duration_
                                 : rts_duration_);
}

void DcfStation::on_transmission_end(bool success) {
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
      // Frame delivered: record its sojourn time and dequeue.
      stats_.delay_s.add(to_seconds(simulator_.now() - queue_.front()));
      queue_.pop_front();
    }
    Medium& medium = medium_;
    if (params_.access_mode == DcfAccessMode::kBasic) {
      // The receiver's ACK: a system transmission SIFS after the data.
      const SimTime ack_duration = ack_duration_;
      simulator_.schedule_in(sifs_, [&medium, ack_duration] {
        medium.start_transmission(nullptr, ack_duration);
      });
    } else {
      // Winning RTS reserves the channel: CTS, DATA and ACK follow as
      // system transmissions, each one SIFS after the previous segment.
      // (SIFS < DIFS, so no contender can seize the gaps.)
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
  // The next on_idle_start re-arms the DIFS wait: at this very tick when
  // this frame ended the busy period, since the medium notifies idle after
  // the outcome. An unsaturated station with an empty queue stays quiet
  // until the next arrival.
}

DcfChannelSim::DcfChannelSim(const DcfParameters& params, int stations,
                             std::uint64_t seed, TrafficOptions traffic)
    : params_(params),
      medium_(std::make_unique<Medium>(simulator_)),
      timer_(std::make_unique<BackoffTimer>(simulator_, *medium_)) {
  if (stations < 1) {
    throw std::invalid_argument("DcfChannelSim: need at least one station");
  }
  Rng master(seed);
  stations_.reserve(static_cast<std::size_t>(stations));
  for (int s = 0; s < stations; ++s) {
    stations_.push_back(std::make_unique<DcfStation>(
        simulator_, *medium_, *timer_, params_, master.split(), traffic));
  }
  for (const auto& station : stations_) station->start();
}

void DcfChannelSim::attach_trace(TraceRecorder& trace) {
  medium_->set_trace(&trace);
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    stations_[s]->set_trace(&trace, static_cast<int>(s));
  }
}

void DcfChannelSim::run(double seconds) {
  if (seconds < 0.0) {
    throw std::invalid_argument("DcfChannelSim::run: negative duration");
  }
  simulator_.run_until(simulator_.now() + from_seconds(seconds));
}

const StationStats& DcfChannelSim::station_stats(int station) const {
  return stations_.at(static_cast<std::size_t>(station))->stats();
}

double DcfChannelSim::elapsed_seconds() const {
  return to_seconds(simulator_.now());
}

double DcfChannelSim::total_throughput_bps() const {
  double total = 0.0;
  for (const auto& station : stations_) {
    total += station->stats().throughput_bps(elapsed_seconds());
  }
  return total;
}

std::vector<double> DcfChannelSim::per_station_throughput_bps() const {
  std::vector<double> result;
  result.reserve(stations_.size());
  for (const auto& station : stations_) {
    result.push_back(station->stats().throughput_bps(elapsed_seconds()));
  }
  return result;
}

double DcfChannelSim::collision_probability() const {
  std::uint64_t attempts = 0;
  std::uint64_t collisions = 0;
  for (const auto& station : stations_) {
    attempts += station->stats().attempts;
    collisions += station->stats().collisions;
  }
  return attempts > 0
             ? static_cast<double>(collisions) / static_cast<double>(attempts)
             : 0.0;
}

double DcfChannelSim::medium_busy_fraction() const {
  return medium_->busy_fraction(simulator_.now());
}

}  // namespace mrca::sim
