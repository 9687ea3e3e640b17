// Shared broadcast medium for one orthogonal channel — a single collision
// domain, as the paper assumes ("the transmitters reside in the same
// collision domain", §2.1).
//
// Carrier sensing is idealized (zero sensing delay): every attached
// listener learns of busy/idle transitions at the instant they happen.
// A transmission is successful iff no other transmission overlapped any
// part of it. ACKs are modelled as owner-less "system" transmissions: they
// occupy airtime and participate in collision accounting but report to no
// one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace mrca::sim {

/// Receives carrier-sense transitions of the medium.
class MediumListener {
 public:
  virtual ~MediumListener() = default;
  virtual void on_busy_start() = 0;
  virtual void on_idle_start() = 0;
};

/// Receives the outcome of an own transmission.
class TxListener {
 public:
  virtual ~TxListener() = default;
  virtual void on_transmission_end(bool success) = 0;
};

class Medium {
 public:
  explicit Medium(Simulator& simulator);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers for busy/idle notifications. Listeners must outlive the
  /// medium's use (the channel simulation owns both).
  void attach(MediumListener* listener);

  /// Optional event tracing; pass nullptr to detach. The recorder must
  /// outlive the medium's use.
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }

  bool is_idle() const noexcept { return active_.empty(); }

  /// Starts a transmission of `duration` ns. `owner` (may be null for
  /// system frames such as ACKs) is notified at the end with the collision
  /// verdict.
  void start_transmission(TxListener* owner, SimTime duration);

  /// Cumulative airtime statistics.
  std::uint64_t transmissions_started() const noexcept { return started_; }
  std::uint64_t collisions_observed() const noexcept { return collided_; }
  /// Fraction of elapsed time the medium was busy, up to `now`.
  double busy_fraction(SimTime now) const;

 private:
  struct ActiveTx {
    std::uint64_t id;
    TxListener* owner;
    bool collided;
  };

  void end_transmission(std::uint64_t id);

  Simulator& simulator_;
  std::vector<MediumListener*> listeners_;
  // The handful of concurrently-airborne frames, in transmission-id order:
  // ids only grow, so appending keeps the order. start_transmission
  // ITERATES this (to damage everything on the air), and iterated order
  // must never depend on hash layout in code whose effects can reach
  // traces/results — mrca_lint's unordered-iter rule enforces the
  // invariant tree-wide. A map would allocate a tree node per frame on
  // the replay's hot path.
  std::vector<ActiveTx> active_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t collided_ = 0;
  TimeWeightedMean busy_tracker_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mrca::sim
