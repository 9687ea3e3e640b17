// Shared helpers for the mrca test suite.
#pragma once

#include <memory>
#include <vector>

#include "core/game_model.h"
#include "core/rate_function.h"
#include "core/strategy.h"
#include "core/topology.h"

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

/// One rate function of each family: constant, power law, geometric and
/// linear decay.
inline std::vector<std::shared_ptr<const RateFunction>> rate_families() {
  return {std::make_shared<ConstantRate>(1.0),
          std::make_shared<PowerLawRate>(1.0, 1.0),
          std::make_shared<GeometricDecayRate>(1.0, 0.8),
          std::make_shared<LinearDecayRate>(1.0, 0.05)};
}

/// Small games covering the base game of every rate family and every
/// scenario axis: per-channel rates, per-user budgets, an energy price and
/// an interference ring. The cached engines are checked against their
/// full-recompute references (reference_dynamics.h) on these.
inline std::vector<GameModel> reference_models() {
  std::vector<GameModel> models;
  for (const auto& rate_fn : rate_families()) {
    models.emplace_back(GameConfig(7, 5, 3), rate_fn);
  }
  const std::vector<std::shared_ptr<const RateFunction>> mixed = {
      std::make_shared<ConstantRate>(3.0),
      std::make_shared<PowerLawRate>(1.5, 1.0),
      std::make_shared<GeometricDecayRate>(1.0, 0.7),
      std::make_shared<ConstantRate>(0.5)};
  models.emplace_back(4, std::vector<RadioCount>(5, 2), mixed);
  models.push_back(GameModel(5, {1, 4, 2, 5, 3}, {rate_families()[0]}));
  models.emplace_back(GameConfig(5, 4, 2),
                      std::make_shared<PowerLawRate>(1.0, 0.5), 0.2);
  models.push_back(GameModel(
      4, std::vector<RadioCount>(8, 2), {rate_families()[1]}, 0.05, {},
      std::make_shared<const Topology>(Topology::ring(8, 1))));
  return models;
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
