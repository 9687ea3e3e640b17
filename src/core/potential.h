// Rosenthal-style potential diagnostics.
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
// `move_potential_gap` quantifies the discrepancy; the test suite proves it
// zero exactly when the mover has one radio on the source and none on the
// target, and the convergence bench measures how dynamics behave anyway.
#pragma once

#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// Phi(S) = sum_c sum_{j=1}^{k_c} R_c(j)/j (per-channel rates summed on
/// their own channel). O(|C| * max_load). Throws std::invalid_argument on
/// a topology model: neighborhood-local loads have no per-channel
/// congestion count to sum over.
double potential(const GameModel& model, const StrategyMatrix& strategies);

/// Change of Phi caused by the move (computed incrementally, O(1)).
double potential_delta(const GameModel& model,
                       const StrategyMatrix& strategies,
                       const RadioMove& move);

/// (user's benefit of change) - (potential delta) for a move: zero for
/// unit-weight movers, nonzero in general for multi-radio users.
double move_potential_gap(const GameModel& model,
                          const StrategyMatrix& strategies,
                          const RadioMove& move);

}  // namespace mrca
