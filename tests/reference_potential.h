// Rosenthal-style potential of the single-collision-domain game: the
// reference landscape for log-linear play (core/dynamics/log_linear.cpp).
//
// View each radio as an atomic player earning the per-radio rate R(k_c)/k_c
// of the channel it sits on; that is a classic singleton congestion game
// with (Rosenthal 1973) exact potential
//
//   Phi(S) = sum_c sum_{j=1}^{k_c} R(j)/j.
//
// For single-radio users (k = 1) the user game coincides with the radio
// game, so Phi is an exact potential and better-response dynamics converge
// by finite improvement. For multi-radio users Phi is NOT exact: a user's
// move also changes the payoff of their other radios on the two channels.
// `move_potential_gap` quantifies the discrepancy; test_potential proves it
// zero exactly when the mover has one radio on the source and none on the
// target, and the convergence bench measures how dynamics behave anyway.
#pragma once

#include <stdexcept>

#include "core/analysis/deviation.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca::testing {

inline void require_single_domain(const GameModel& model) {
  if (model.topology()) {
    throw std::invalid_argument(
        "potential: defined for the single collision domain only");
  }
}

/// Phi(S) = sum_c sum_{j=1}^{k_c} R_c(j)/j (per-channel rates summed on
/// their own channel). O(|C| * max_load). Throws std::invalid_argument on
/// a topology model: neighborhood-local loads have no per-channel
/// congestion count to sum over.
inline double potential(const GameModel& model,
                        const StrategyMatrix& strategies) {
  require_single_domain(model);
  model.validate(strategies);
  double total = 0.0;
  const auto loads = strategies.channel_loads();
  for (ChannelId c = 0; c < loads.size(); ++c) {
    for (RadioCount j = 1; j <= loads[c]; ++j) {
      total += model.per_radio(c, j);
    }
  }
  return total;
}

/// Change of Phi caused by the move (computed incrementally, O(1)).
inline double potential_delta(const GameModel& model,
                              const StrategyMatrix& strategies,
                              const RadioMove& move) {
  require_single_domain(model);
  model.validate(strategies);
  if (move.from == move.to) return 0.0;
  const RadioCount load_from = strategies.channel_load(move.from);
  const RadioCount load_to = strategies.channel_load(move.to);
  // Removing the top radio of `from` subtracts R(k_from)/k_from; adding to
  // `to` contributes R(k_to + 1)/(k_to + 1).
  return model.per_radio(move.to, load_to + 1) -
         model.per_radio(move.from, load_from);
}

/// (user's benefit of change) - (potential delta) for a move: zero for
/// unit-weight movers, nonzero in general for multi-radio users.
inline double move_potential_gap(const GameModel& model,
                                 const StrategyMatrix& strategies,
                                 const RadioMove& move) {
  return move_benefit(model, strategies, move) -
         potential_delta(model, strategies, move);
}

}  // namespace mrca::testing
