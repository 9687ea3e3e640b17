#include "core/potential.h"

#include <stdexcept>

#include "core/analysis/deviation.h"

namespace mrca {
namespace {

void require_single_domain(const GameModel& model) {
  if (model.topology()) {
    throw std::invalid_argument(
        "potential: defined for the single collision domain only");
  }
}

}  // namespace

double potential(const GameModel& model, const StrategyMatrix& strategies) {
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

double potential_delta(const GameModel& model,
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

double move_potential_gap(const GameModel& model,
                          const StrategyMatrix& strategies,
                          const RadioMove& move) {
  return move_benefit(model, strategies, move) -
         potential_delta(model, strategies, move);
}

}  // namespace mrca
