// Event tracing for the discrete-event simulator.
//
// A TraceRecorder collects timestamped MAC/medium events (ns-2 trace-file
// style) for debugging and for asserting fine-grained temporal properties
// in tests (e.g. "ACK follows data by exactly SIFS"). Tracing is opt-in:
// the hot simulation paths never pay for it unless a recorder is attached.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sim_time.h"

namespace mrca::sim {

enum class TraceEventKind {
  kTxStart,
  kTxEndSuccess,
  kTxEndCollision,
  kMediumBusy,
  kMediumIdle,
  /// An armed station whose countdown a busy start cut short (one that
  /// expires at the busy start's own tick transmits instead).
  kBackoffFrozen,
  kBackoffResumed,
  kFrameArrival,
  kFrameDropped,
};

const char* trace_event_name(TraceEventKind kind);

struct TraceEvent {
  SimTime time = 0;
  TraceEventKind kind = TraceEventKind::kTxStart;
  /// Station index, or -1 for medium-level / system events.
  int station = -1;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class TraceRecorder {
 public:
  /// Caps memory; recording silently stops at `max_events` (the count of
  /// dropped events is still tracked).
  explicit TraceRecorder(std::size_t max_events = 1 << 20);

  void record(SimTime time, TraceEventKind kind, int station = -1);

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear();

  /// Events of one kind, in time order.
  std::vector<TraceEvent> filter(TraceEventKind kind) const;
  /// Events of one station, in time order.
  std::vector<TraceEvent> filter_station(int station) const;

  /// "time kind station" lines, one per event.
  std::string to_text() const;
  void print(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
  std::size_t max_events_;
  std::size_t dropped_ = 0;
};

}  // namespace mrca::sim
