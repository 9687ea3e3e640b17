// Pareto-optimality analysis (paper Definition 2 and Theorem 2).
//
// Definition 2 as printed is actually the definition of a utility-profile
// maximum; the standard reading — which the proof of Theorem 2 uses — is:
// S is Pareto-optimal iff no S' makes some user strictly better off without
// making any user worse off. That is what `is_pareto_optimal` checks.
//
// Every check is model-generic: the exhaustive checks quantify over the
// budget-feasible joint strategy space (each user's own radio budget), so
// energy-priced, heterogeneous-band and mixed-budget allocations get exact
// Pareto verdicts.
#pragma once

#include <optional>

#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// True when `candidate` Pareto-dominates `incumbent`: every user weakly
/// better off (within tolerance) and at least one strictly better.
bool pareto_dominates(const GameModel& model, const StrategyMatrix& candidate,
                      const StrategyMatrix& incumbent,
                      double tolerance = kUtilityTolerance);

/// Exhaustive Pareto check over the full joint strategy space. Exponential;
/// only for tiny games (tests and the Theorem 2 audit bench). Gate large
/// instances with `strategy_space_size` (nash.h) before calling.
bool is_pareto_optimal(const GameModel& model,
                       const StrategyMatrix& strategies,
                       double tolerance = kUtilityTolerance);

/// If a dominating matrix exists, returns one (for diagnostics).
std::optional<StrategyMatrix> find_pareto_dominator(
    const GameModel& model, const StrategyMatrix& strategies,
    double tolerance = kUtilityTolerance);

/// Sufficient condition usable at any scale: a matrix whose welfare equals
/// the global optimum `optimal_welfare()` cannot be Pareto-dominated
/// (a dominator would have strictly larger welfare — utilities sum to
/// welfare under every model axis, energy price included). This is exactly
/// the argument in the paper's proof of Theorem 2, valid for constant R.
bool welfare_certifies_pareto(const GameModel& model,
                              const StrategyMatrix& strategies,
                              double tolerance = kUtilityTolerance);

}  // namespace mrca
