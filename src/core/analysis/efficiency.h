// System-efficiency metrics: Nash-equilibrium welfare, price of anarchy /
// stability, load balance and fairness — model-generic, with the paper's
// closed forms used exactly where they are proven to hold.
//
// Theorem 1 pins down the channel loads of every NE of the HOMOGENEOUS
// game: with T = |N|*k total radios over |C| channels, exactly (T mod |C|)
// channels carry ceil(T/|C|) radios and the rest carry floor(T/|C|).
// Welfare depends only on the loads, so all NE share one welfare value,
// computable in closed form at any scale — no enumeration needed. That
// argument needs every precondition (`theorem1_preconditions_hold`): under
// per-channel rates equilibria water-fill instead of load-balance, under an
// energy price radios park, and under mixed budgets the profile shifts. The
// model entry points below therefore fall back to an exact equilibrium
// computation (generalized Algorithm 1 start + best-response dynamics until
// a closing pass finds no improving deviation) instead of silently applying
// the closed form.
#pragma once

#include <vector>

#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// The balanced load vector every NE of the homogeneous game realizes
/// (descending, e.g. {3,3,2,2}).
std::vector<RadioCount> nash_load_profile(const GameConfig& config);

/// Welfare of a Nash equilibrium. Homogeneous models (Theorem 1
/// preconditions hold) use the closed form: sum of R(load) over the
/// balanced load profile, shared by every NE (in the no-conflict regime
/// this is the Fact-1 welfare min(T,|C|)*R(1)). Any other model computes
/// an actual equilibrium exactly: generalized Algorithm 1 start, then
/// best-response dynamics, whose converged run ends on a closing pass in
/// which every user's exact DP best response gains nothing — the run's own
/// Definition 1 check, recorded as StabilityProof::kNash. Deterministic
/// (lowest-index ties, round-robin activation). Returns NaN if the dynamics
/// exhaust their activation budget — an honest "unknown", never a
/// homogeneous formula applied out of its regime. NOTE: unlike the
/// homogeneous game, heterogeneous/budget/energy equilibria need not share
/// one welfare value; this is the welfare of the canonical equilibrium the
/// deterministic procedure reaches.
double nash_welfare(const GameModel& model);

/// Price of anarchy, optimal_welfare / nash_welfare. All NE of the
/// homogeneous game have equal welfare, so PoA == PoS (price of
/// stability). 1.0 for constant R in the conflict regime (Theorem 2's
/// system-optimality); > 1 for strictly decreasing R. Other models are
/// measured against the canonical equilibrium of nash_welfare (see caveat
/// there). NaN when that welfare is NaN or not positive.
double price_of_anarchy(const GameModel& model);

/// Max minus min channel load of an arbitrary allocation, over every
/// channel of the matrix: an empty channel counts (it could have been
/// used).
RadioCount load_imbalance(const StrategyMatrix& strategies);

/// Jain fairness index over users' utilities.
double utility_fairness(const GameModel& model,
                        const StrategyMatrix& strategies);

/// Fraction of the system optimum this allocation achieves, in [0, 1].
double welfare_efficiency(const GameModel& model,
                          const StrategyMatrix& strategies);

}  // namespace mrca
