// Shared helpers for the mrca test suite.
#pragma once

#include <memory>
#include <vector>

#include "core/game_model.h"
#include "core/rate_function.h"
#include "core/strategy.h"

namespace mrca::testing {

/// The paper's game with constant rate 1.0 (the TDMA / optimal-CSMA
/// regime).
inline GameModel constant_game(std::size_t users, std::size_t channels,
                               RadioCount radios, double rate = 1.0) {
  return GameModel(GameConfig(users, channels, radios),
                   std::make_shared<ConstantRate>(rate));
}

/// The paper's game with strictly decreasing R(k) = 1/k^alpha.
inline GameModel power_law_game(std::size_t users, std::size_t channels,
                                RadioCount radios, double alpha = 0.5) {
  return GameModel(GameConfig(users, channels, radios),
                   std::make_shared<PowerLawRate>(1.0, alpha));
}

/// Strategy matrix from an initializer-friendly row list.
inline StrategyMatrix matrix_of(const GameModel& game,
                                std::vector<std::vector<RadioCount>> rows) {
  return StrategyMatrix::from_rows(game.config(), rows);
}

/// The paper's Figure 1 / Figure 2 worked example:
/// |N|=4, k=4, |C|=5; u2 and u4 do not use all radios; NOT a NE.
///
///   u1: 1 1 1 1 0      (4 radios)
///   u2: 1 0 0 1 1      (3 radios; 1 parked)
///   u3: 1 2 0 1 0      (4 radios; two on c2)
///   u4: 1 0 1 0 0      (2 radios; 2 parked)
/// loads: 4 3 2 3 1
inline std::vector<std::vector<RadioCount>> figure1_rows() {
  return {{1, 1, 1, 1, 0},
          {1, 0, 0, 1, 1},
          {1, 2, 0, 1, 0},
          {1, 0, 1, 0, 0}};
}

}  // namespace mrca::testing
