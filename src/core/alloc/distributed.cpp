#include "core/alloc/distributed.h"

#include <optional>
#include <stdexcept>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/analysis/nash.h"

namespace mrca {

DistributedResult run_distributed_allocation(const GameModel& model,
                                             const StrategyMatrix& start,
                                             const DistributedOptions& options,
                                             Rng& rng) {
  model.validate(start);
  if (!(options.activation_probability > 0.0 &&
        options.activation_probability <= 1.0)) {
    throw std::invalid_argument(
        "run_distributed_allocation: activation probability must be in (0,1]");
  }
  DistributedResult result{false, 0, 0, start};
  StrategyMatrix& state = result.final_state;
  const std::size_t users = model.config().num_users;

  std::vector<SingleChange> planned;
  planned.reserve(users);
  while (result.rounds < options.max_rounds) {
    ++result.rounds;
    // Termination test against the *current* state: if nobody has an
    // improving single change, the protocol is stable regardless of who
    // activates.
    if (is_single_move_stable(model, state, options.tolerance)) {
      result.converged = true;
      break;
    }
    // Plan phase: all active users decide against the same stale snapshot.
    planned.clear();
    for (UserId user = 0; user < users; ++user) {
      if (!rng.bernoulli(options.activation_probability)) continue;
      const auto change =
          model.best_single_change(state, user, options.tolerance);
      if (change) planned.push_back(*change);
    }
    // Commit phase: apply simultaneously-decided changes. A planned change
    // is always applicable: it only touches the planning user's own radios,
    // within their own budget (a deploy is only proposed with a spare).
    for (const SingleChange& change : planned) {
      switch (change.kind) {
        case SingleChange::Kind::kMove:
          state.move_radio(change.user, change.from, change.to);
          break;
        case SingleChange::Kind::kDeploy:
          state.add_radio(change.user, change.to);
          break;
        case SingleChange::Kind::kPark:
          state.remove_radio(change.user, change.from);
          break;
      }
      ++result.total_moves;
    }
  }
  if (!result.converged) {
    result.converged = is_single_move_stable(model, state, options.tolerance);
  }
  return result;
}

}  // namespace mrca
