#include "sim/event_queue.h"

#include <limits>
#include <stdexcept>

namespace mrca::sim {

EventId EventQueue::schedule(SimTime when, std::function<void()> handler) {
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("EventQueue: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].handler = std::move(handler);
  const EventId id =
      (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
  heap_.push(Entry{when, next_seq_++, id});
  ++live_count_;
  return id;
}

bool EventQueue::pending(EventId id) const noexcept {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() && slots_[slot].generation == generation_of(id);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.handler = nullptr;
  // Skip 0 on wrap-around so that a reused slot 0 never yields
  // kInvalidEvent.
  if (++entry.generation == 0) entry.generation = 1;
  free_slots_.push_back(slot);
  --live_count_;
}

bool EventQueue::cancel(EventId id) {
  // Lazy deletion: the heap entry stays and is skipped when popped.
  if (!pending(id)) return false;
  release(slot_of(id));
  return true;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && !pending(heap_.top().id)) {
    heap_.pop();
  }
}

SimTime EventQueue::next_time() const {
  drop_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time: queue is empty");
  }
  return heap_.top().time;
}

SimTime EventQueue::run_next() {
  drop_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::run_next: queue is empty");
  }
  const Entry entry = heap_.top();
  heap_.pop();
  // Move the handler out first: it may schedule events that reuse this
  // slot or grow the slot vector.
  std::function<void()> handler = std::move(slots_[slot_of(entry.id)].handler);
  release(slot_of(entry.id));
  handler();
  return entry.time;
}

}  // namespace mrca::sim
