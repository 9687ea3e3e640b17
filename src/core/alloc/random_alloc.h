// Random initial allocations, used as starting points for the dynamics
// studies and as fuzz inputs in the property-based tests.
#pragma once

#include "common/rng.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

// Each user draws against their OWN radio budget k_i, so the same starts
// serve every scenario axis.

/// Every user places all k_i radios independently and uniformly at random
/// over the channels (radios may stack arbitrarily).
StrategyMatrix random_full_allocation(const GameModel& model, Rng& rng);

/// Every user places a uniformly random number of radios in [0, k_i], each
/// on a uniformly random channel (exercises parked-radio states like
/// Fig. 1).
StrategyMatrix random_partial_allocation(const GameModel& model, Rng& rng);

}  // namespace mrca
