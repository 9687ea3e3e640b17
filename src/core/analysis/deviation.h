// Exact deviation analysis: the "benefit of change" of paper eq. (7),
// generalized to every single-radio change (move / deploy / park), and the
// result types of the deviation scans and the exact best-response DP
// (GameModel::best_single_change / improving_changes_for_user /
// best_response; the shared kernels live in deviation_detail.h).
//
// The paper's lemmas analyze only moves from a more-loaded to a less-loaded
// channel; the checkers here enumerate *all* directed single-radio changes
// and, for full Nash verification, all multi-radio deviations (via the DP),
// which is what Definition 1 actually quantifies over.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "core/types.h"

namespace mrca {

class GameModel;

/// One single-radio change to a user's strategy.
struct SingleChange {
  enum class Kind { kMove, kDeploy, kPark };

  Kind kind = Kind::kMove;
  UserId user = 0;
  ChannelId from = 0;  // meaningful for kMove and kPark
  ChannelId to = 0;    // meaningful for kMove and kDeploy
  double benefit = 0.0;

  std::string describe() const;
};

/// Exact utility change for user `move.user` from moving one radio
/// from `move.from` to `move.to` (paper eq. (7)), computed in O(1) from the
/// two affected channels. Requires the user to have a radio on `from`.
double move_benefit(const GameModel& model, const StrategyMatrix& strategies,
                    const RadioMove& move);

/// Utility change from deploying one spare radio on `channel` (the energy
/// price included). Requires the user to have a spare radio.
double deploy_benefit(const GameModel& model, const StrategyMatrix& strategies,
                      UserId user, ChannelId channel);

/// Utility change from parking (withdrawing) one radio from `channel`.
/// Requires the user to have a radio there. Can be positive for strictly
/// decreasing rate functions (withdrawing reduces contention on a channel
/// the user dominates), which is why full stability must consider it.
double park_benefit(const GameModel& model, const StrategyMatrix& strategies,
                    UserId user, ChannelId channel);

/// All strictly-improving single-radio changes of every user (diagnostics).
std::vector<SingleChange> improving_single_changes(
    const GameModel& model, const StrategyMatrix& strategies,
    double tolerance = kUtilityTolerance);

/// Result of an exact best-response computation (GameModel::best_response:
/// an O(|C| * k^2) DP with no concavity assumption, so an oracle over every
/// alternative strategy, multi-radio redistributions and partial
/// deployment included).
struct BestResponse {
  std::vector<RadioCount> strategy;  // the argmax row
  double utility = 0.0;              // value of the best response
};

/// Raw utility user would get from `row` holding everyone else fixed.
double utility_if_played(const GameModel& model,
                         const StrategyMatrix& strategies, UserId user,
                         std::span<const RadioCount> row);

}  // namespace mrca
