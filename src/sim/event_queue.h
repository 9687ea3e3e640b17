// Cancellable discrete-event queue with deterministic ordering.
//
// Events at equal timestamps fire in scheduling order (FIFO by sequence
// number), which the MAC layer relies on: a frame's end-of-transmission
// event is always scheduled before any same-tick transmission start, so
// back-to-back airtime does not read as a collision.
//
// Handlers live in a vector of slots that fired and cancelled events hand
// back for reuse, so a long run allocates only while the number of pending
// events grows. An EventId names a slot and the slot's generation, which
// advances each time the slot is released: an id whose event has fired or
// been cancelled never matches again, even after its slot is reused.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/sim_time.h"

namespace mrca::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// Schedules `handler` at absolute time `when`; returns a cancellable id.
  EventId schedule(SimTime when, std::function<void()> handler);

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op (returns false).
  bool cancel(EventId id);

  bool empty() const noexcept { return live_count_ == 0; }
  std::size_t size() const noexcept { return live_count_; }

  /// Time of the earliest pending event; queue must be non-empty.
  SimTime next_time() const;

  /// Pops and runs the earliest event; returns its timestamp.
  /// Queue must be non-empty.
  SimTime run_next();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct Slot {
    std::function<void()> handler;
    /// Starts at 1 so that no id equals kInvalidEvent.
    std::uint32_t generation = 1;
  };

  static std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  bool pending(EventId id) const noexcept;
  void release(std::uint32_t slot);
  void drop_cancelled() const;

  // Heap entries of cancelled events stay until they surface and are
  // skipped (lazy deletion); firing order comes only from (time, seq).
  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace mrca::sim
