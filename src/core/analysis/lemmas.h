// The paper's printed necessary conditions (Lemmas 1-4, Proposition 1) and
// the Theorem 1 equilibrium characterization, implemented exactly as stated
// so the reproduction can audit them against exact checkers.
//
// Every predicate reports *which* users/channels violate it, matching the
// walk-through in the paper's text (e.g. "Lemma 2 holds for user u1 and the
// channels b=c4, c=c5 in Figure 1").
#pragma once

#include <string>
#include <vector>

#include "core/game_model.h"
#include "core/strategy.h"
#include "core/types.h"

namespace mrca {

/// A witness that one of the printed necessary conditions fires.
struct ConditionViolation {
  std::string condition;  // "Lemma 1", "Lemma 2", ...
  UserId user = 0;
  ChannelId channel_b = 0;  // source channel (when applicable)
  ChannelId channel_c = 0;  // target channel (when applicable)
  std::string detail;
};

/// Lemma 1: in a NE every user deploys all k radios.
/// Returns one violation per user with k_i < k.
std::vector<ConditionViolation> lemma1_violations(const StrategyMatrix& s);

/// Model-aware Lemma 1: each user measured against their OWN radio budget
/// (the homogeneous matrix form above reads the uniform k off the config).
std::vector<ConditionViolation> lemma1_violations(const GameModel& model,
                                                  const StrategyMatrix& s);

/// True when `model` satisfies the homogeneity the paper's printed results
/// assume: one shared rate function, uniform radio budgets, zero energy
/// price. Theorem 1's load-balance characterization and the closed-form NE
/// welfare are proven ONLY in this regime; callers must fall back to the
/// exact checkers (nash.h) when this returns false.
bool theorem1_preconditions_hold(const GameModel& model);

/// Lemma 2: k_{i,b} > 0, k_{i,c} = 0 and delta_{b,c} > 1 -> not a NE.
std::vector<ConditionViolation> lemma2_violations(const StrategyMatrix& s);

/// Lemma 3: k_{i,b} > 1, k_{i,c} = 0 and delta_{b,c} = 1 -> not a NE.
std::vector<ConditionViolation> lemma3_violations(const StrategyMatrix& s);

/// Lemma 4: gamma_{i,b,c} >= 2, k_{i,c} = 0 and delta_{b,c} = 0 -> not a NE.
std::vector<ConditionViolation> lemma4_violations(const StrategyMatrix& s);

/// Proposition 1: in a NE, delta_{b,c} <= 1 for all channel pairs.
bool proposition1_holds(const StrategyMatrix& s);

/// Fact 1 regime: |N|*k <= |C| (no conflict). In that regime any allocation
/// with k_c = 1 for every channel is a Pareto-optimal NE.
bool fact1_applies(const GameConfig& config);
bool is_flat_allocation(const StrategyMatrix& s);

/// Result of evaluating the printed Theorem 1 characterization.
struct Theorem1Result {
  bool applicable = false;   // requires the conflict regime |N|*k > |C|
  bool full_deployment = false;  // Lemma 1 precondition
  bool condition1 = false;   // delta_{b,c} <= 1 for all b, c
  bool condition2 = false;   // per-user spread condition (with exception)
  std::vector<ConditionViolation> violations;

  /// The theorem's verdict: conditions 1 and 2 hold (and every radio is
  /// deployed, per Lemma 1 which the theorem builds on).
  bool predicts_nash() const {
    return applicable && full_deployment && condition1 && condition2;
  }
};

/// Evaluates Theorem 1 exactly as printed:
///   condition 1: delta_{b,c} <= 1 for any b, c in C;
///   condition 2: k_{i,c} <= 1 for every user i and channel c, EXCEPT for
///     users j that have a radio on every min-loaded channel (no c in C_min
///     with k_{j,c} = 0). For such users: k_{j,c} <= 1 on every max-loaded
///     channel, and gamma_{j,a,c} <= 1 for channels a, c in C_min.
///
/// See README "Reproduction findings": the printed condition 2 admits rare
/// non-equilibria at small loads; `is_single_move_stable` /
/// `is_nash_equilibrium` (nash.h) are the exact checkers this predicate is
/// audited against.
Theorem1Result check_theorem1(const StrategyMatrix& s);

/// Model-aware Theorem 1. When the model satisfies the theorem's
/// homogeneity preconditions (`theorem1_preconditions_hold`) this is the
/// printed predicate above. When an axis breaks them — per-channel rates,
/// mixed budgets or an energy price — the predicate is out of its proven
/// regime: the result comes back with `applicable == false` and a violation
/// naming the broken precondition, NEVER a load-balance verdict that the
/// heterogeneous equilibria would contradict (water-filling legitimately
/// unbalances loads; energy prices legitimately park radios). Callers that
/// need a verdict anyway must use the exact checkers in nash.h.
Theorem1Result check_theorem1(const GameModel& model, const StrategyMatrix& s);

}  // namespace mrca
