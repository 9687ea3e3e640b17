// Packet-level validation tier for the sweep engine.
//
// The sweep's analytic layer scores allocations through the rate-function
// abstraction (paper eq. (3)); this tier closes the loop by replaying a
// converged StrategyMatrix through the discrete-event simulator
// (sim::simulate_network) and comparing measured per-user throughput
// against the MAC model's analytic prediction for the same loads —
// TdmaModel for reservation TDMA, Bianchi's fixed point for DCF. The
// comparison is the paper's §5 validation claim (NE allocations are
// load-balanced and near-optimal under FDMA) executed as one pipeline.
//
// Determinism contract: a replay's outcome is a pure function of
// (strategies, tier, seed); the TDMA simulator is seedless and the DCF
// simulator derives every per-channel stream from `seed`.
#pragma once

#include <cstdint>
#include <vector>

#include "core/strategy.h"
#include "sim/network.h"

namespace mrca::engine {

/// Configuration of the packet-level tier: which MAC to simulate, for how
/// long, and how many independent DES replays per converged game run. The
/// MAC runs at sim::NetworkOptions' default parameters (Bianchi's FHSS
/// DCF, the default TDMA frame), so these three values are the whole spec.
struct SimTierSpec {
  sim::MacKind mac = sim::MacKind::kDcf;
  /// Simulated seconds per replay.
  double duration_s = 1.0;
  /// Independent DES replays per (cell, replicate) game run; each gets its
  /// own derived seed and contributes one sample to the cell aggregates.
  std::size_t replicates = 1;

  friend bool operator==(const SimTierSpec&, const SimTierSpec&) = default;
};

/// Analytic per-user throughput (bit/s) under the FDMA fair-sharing
/// assumption with the MAC-specific total rate: user i receives
/// sum_c (k_{i,c}/k_c) * R_mac(k_c) where R_mac is TdmaModel::total_rate_bps
/// or Bianchi saturation throughput for the tier's parameters.
std::vector<double> analytic_per_user_bps(const StrategyMatrix& strategies,
                                          const SimTierSpec& tier);

/// Analytic-vs-measured metrics of one DES replay.
struct SimTierOutcome {
  /// Measured total payload throughput, bit/s.
  double total_bps = 0.0;
  /// Mean over active users (analytic prediction > 0) of
  /// |measured - analytic| / analytic; 0 when no user is active.
  double throughput_gap = 0.0;
  /// Jain fairness index over measured per_user_bps.
  double fairness = 0.0;
  /// Relative spread (max - min) / mean of measured per-channel throughput
  /// over occupied channels; 0 with fewer than two occupied channels.
  double channel_imbalance = 0.0;
};

/// Replays `strategies` through sim::simulate_network and scores it against
/// `analytic`, the analytic_per_user_bps prediction — it depends only on
/// (strategies, tier), so callers replaying the same allocation several
/// times (sweep sim replicates) compute it once. Pure function of its
/// arguments.
SimTierOutcome replay_strategy(const StrategyMatrix& strategies,
                               const SimTierSpec& tier, std::uint64_t seed,
                               const std::vector<double>& analytic);

}  // namespace mrca::engine
