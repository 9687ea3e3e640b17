#include "core/alloc/random_alloc.h"

#include <numeric>
#include <vector>

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

StrategyMatrix random_spread_allocation(const GameModel& model, Rng& rng) {
  StrategyMatrix strategies = model.empty_strategy();
  const GameConfig& config = model.config();
  std::vector<ChannelId> channels(config.num_channels);
  std::iota(channels.begin(), channels.end(), ChannelId{0});
  for (UserId i = 0; i < config.num_users; ++i) {
    rng.shuffle(channels);
    for (RadioCount j = 0; j < model.budget(i); ++j) {
      strategies.add_radio(i, channels[static_cast<std::size_t>(j)]);
    }
  }
  return strategies;
}

}  // namespace mrca
