#include "core/analysis/pareto.h"

#include <cmath>

#include "core/analysis/nash.h"

namespace mrca {

bool pareto_dominates(const GameModel& model, const StrategyMatrix& candidate,
                      const StrategyMatrix& incumbent, double tolerance) {
  model.validate(candidate);
  model.validate(incumbent);
  // Raw per-user utilities: a positive weight scales both sides of every
  // per-user comparison, so dominance is weight-invariant in exact
  // arithmetic — raw units keep the tolerance margin invariant too.
  bool some_strictly_better = false;
  for (UserId i = 0; i < incumbent.num_users(); ++i) {
    const double old_utility = model.raw_utility(incumbent, i);
    const double new_utility = model.raw_utility(candidate, i);
    if (new_utility < old_utility - tolerance) return false;
    if (new_utility > old_utility + tolerance) some_strictly_better = true;
  }
  return some_strictly_better;
}

std::optional<StrategyMatrix> find_pareto_dominator(
    const GameModel& model, const StrategyMatrix& strategies,
    double tolerance) {
  std::optional<StrategyMatrix> dominator;
  for_each_strategy_matrix(model, [&](const StrategyMatrix& other) {
    if (pareto_dominates(model, other, strategies, tolerance)) {
      dominator = other;
      return false;  // stop enumeration
    }
    return true;
  });
  return dominator;
}

bool is_pareto_optimal(const GameModel& model,
                       const StrategyMatrix& strategies, double tolerance) {
  return !find_pareto_dominator(model, strategies, tolerance).has_value();
}

bool welfare_certifies_pareto(const GameModel& model,
                              const StrategyMatrix& strategies,
                              double tolerance) {
  return model.welfare(strategies) >= model.optimal_welfare() - tolerance;
}

}  // namespace mrca
