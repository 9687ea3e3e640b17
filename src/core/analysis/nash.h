// Exact equilibrium checkers and small-game enumeration oracles.
//
// Three layers of rigor:
//   1. check_theorem1 (lemmas.h) — the paper's printed predicate, O(N*C^2).
//   2. is_single_move_stable — no user can gain by relocating, deploying or
//      parking ONE radio. O(N*C^2) with O(1) incremental benefits. Engines
//      that test it periodically own one StabilityCheck per run instead:
//      the same verdict, but the scan resumes at the user whose improving
//      change refuted the previous check and reuses one scratch set, so a
//      run that stays unstable pays about one user scan per check rather
//      than a rescan from user 0.
//   3. GameModel::is_nash_equilibrium (game_model.h) — no user can gain by
//      ANY unilateral strategy change (Definition 1), via the exact
//      best-response DP. O(N*C*k^2). find_nash_violation below returns
//      the same verdict with a witness.
// Layer 3 implies layer 2. The test suite quantifies agreement between all
// three, and `enumerate_*` / for_each_strategy_matrix provide the
// brute-force ground truth for tiny games.
//
// A dynamics run that stops on layer 2 or 3 has already run that check on
// its final state, and records which in DynamicsResult::proof. The verdict
// metrics (metrics.h) read the proof and call the checkers below only for
// runs without one. The two proofs are kept apart: the DP's utilities and
// the single-change benefits round differently, so a run's layer-3 proof
// is not taken as a layer-2 one.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/analysis/deviation_detail.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// Layer 2 as a resumable check a dynamics run owns. holds() scans users in
/// cyclic order from the cursor and returns false at the first user with an
/// improving single change, leaving the cursor on that user; a full clean
/// cycle returns true. The verdict is a for-all over users, so it never
/// depends on where the cycle starts, and the check draws no randomness.
/// A cursor past the end of a smaller game restarts at user 0.
class StabilityCheck {
 public:
  bool holds(const GameModel& model, const StrategyMatrix& strategies,
             double tolerance = kUtilityTolerance);

  /// The check's scan scratch, lent to its owner's own scans between
  /// checks (holds() overwrites it).
  detail::ScanBuffers& buffers() noexcept { return buffers_; }
  /// The user the next holds() scans first.
  UserId cursor() const noexcept { return next_; }

 private:
  detail::ScanBuffers buffers_;
  UserId next_ = 0;
};

/// True when no single-radio change (move/deploy/park) improves any user's
/// utility by more than `tolerance`. Model-generic: per-channel rates,
/// per-user budgets and the energy price all flow through the shared scan.
/// A one-shot StabilityCheck.
bool is_single_move_stable(const GameModel& model,
                           const StrategyMatrix& strategies,
                           double tolerance = kUtilityTolerance);

/// A witness that a strategy matrix is not a Nash equilibrium.
struct NashViolation {
  UserId user = 0;
  std::vector<RadioCount> better_strategy;
  double current_utility = 0.0;
  double better_utility = 0.0;
};

/// GameModel::is_nash_equilibrium's verdict with a witness: the first user
/// whose exact best response beats their current strategy by more than
/// `tolerance` (or nullopt when the matrix is a Nash equilibrium).
std::optional<NashViolation> find_nash_violation(
    const GameModel& model, const StrategyMatrix& strategies,
    double tolerance = kUtilityTolerance);

/// Enumerates every strategy row for one user with `budget` radios over
/// `num_channels` channels: all vectors of non-negative counts with
/// sum <= budget (users may park radios, cf. Figure 1).
/// Count: binomial(budget + |C|, |C|).
std::vector<std::vector<RadioCount>> enumerate_strategy_rows(
    std::size_t num_channels, RadioCount budget);

/// Enumerates all strategy rows with sum == budget (full deployment only).
std::vector<std::vector<RadioCount>> enumerate_full_rows(
    std::size_t num_channels, RadioCount budget);

/// Calls `visit` with every strategy matrix of the game (cartesian product
/// of per-user rows, each respecting that user's OWN radio budget, so
/// heterogeneous-budget strategy spaces enumerate exactly). Returns the
/// number visited. STOPS and returns early if `visit` returns false.
/// Intended for tiny games; the count grows as binomial(k+|C|, |C|)^N.
std::size_t for_each_strategy_matrix(
    const GameModel& model,
    const std::function<bool(const StrategyMatrix&)>& visit,
    bool full_deployment_only = false);

/// Number of matrices for_each_strategy_matrix would visit, computed in
/// closed form as a double (it overflows std::size_t long before the walk
/// becomes feasible). The guard every enumeration-backed metric checks
/// before committing to an exhaustive pass.
double strategy_space_size(const GameModel& model,
                           bool full_deployment_only = false);

/// Brute-force count / collection of all Nash equilibria of a tiny game.
std::vector<StrategyMatrix> enumerate_nash_equilibria(
    const GameModel& model, double tolerance = kUtilityTolerance,
    bool full_deployment_only = false);

}  // namespace mrca
