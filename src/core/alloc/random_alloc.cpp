#include "core/alloc/random_alloc.h"

namespace mrca {

StrategyMatrix random_full_allocation(const GameModel& model, Rng& rng) {
  StrategyMatrix strategies = model.empty_strategy();
  const GameConfig& config = model.config();
  for (UserId i = 0; i < config.num_users; ++i) {
    for (RadioCount j = 0; j < model.budget(i); ++j) {
      strategies.add_radio(i, rng.index(config.num_channels));
    }
  }
  return strategies;
}

StrategyMatrix random_partial_allocation(const GameModel& model, Rng& rng) {
  StrategyMatrix strategies = model.empty_strategy();
  const GameConfig& config = model.config();
  for (UserId i = 0; i < config.num_users; ++i) {
    const auto deployed =
        static_cast<RadioCount>(rng.uniform_int(0, model.budget(i)));
    for (RadioCount j = 0; j < deployed; ++j) {
      strategies.add_radio(i, rng.index(config.num_channels));
    }
  }
  return strategies;
}

}  // namespace mrca
