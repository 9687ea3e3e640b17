#include "sim/medium.h"

#include <algorithm>
#include <stdexcept>

namespace mrca::sim {

Medium::Medium(Simulator& simulator) : simulator_(simulator) {}

void Medium::attach(MediumListener* listener) {
  if (listener == nullptr) {
    throw std::invalid_argument("Medium::attach: null listener");
  }
  listeners_.push_back(listener);
}

void Medium::start_transmission(TxListener* owner, SimTime duration) {
  if (duration <= 0) {
    throw std::invalid_argument("Medium: transmission duration must be > 0");
  }
  const bool was_idle = active_.empty();
  const std::uint64_t id = next_tx_id_++;
  ++started_;

  bool collided = !was_idle;
  if (!was_idle) {
    // Everything on the air now is damaged, including frames that started
    // earlier (no capture effect).
    for (ActiveTx& tx : active_) {
      if (!tx.collided) ++collided_;
      tx.collided = true;
    }
    ++collided_;
  }
  active_.push_back(ActiveTx{id, owner, collided});
  simulator_.schedule_in(duration, [this, id] { end_transmission(id); });

  if (was_idle) {
    busy_tracker_.update(to_seconds(simulator_.now()), 1.0);
    if (trace_) {
      trace_->record(simulator_.now(), TraceEventKind::kMediumBusy);
    }
    for (MediumListener* listener : listeners_) listener->on_busy_start();
  }
}

void Medium::end_transmission(std::uint64_t id) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [id](const ActiveTx& tx) { return tx.id == id; });
  if (it == active_.end()) {
    throw std::logic_error("Medium: unknown transmission ended");
  }
  const ActiveTx tx = *it;
  active_.erase(it);
  const bool now_idle = active_.empty();
  if (now_idle) {
    busy_tracker_.update(to_seconds(simulator_.now()), 0.0);
    if (trace_) {
      trace_->record(simulator_.now(), TraceEventKind::kMediumIdle);
    }
  }
  // Outcome first, then the idle notification: the owner may react to a
  // success (e.g. scheduling an ACK later) before contenders see the medium
  // free — both happen at the same tick either way.
  if (tx.owner != nullptr) tx.owner->on_transmission_end(!tx.collided);
  if (now_idle) {
    for (MediumListener* listener : listeners_) listener->on_idle_start();
  }
}

double Medium::busy_fraction(SimTime now) const {
  return busy_tracker_.mean(to_seconds(now));
}

}  // namespace mrca::sim
