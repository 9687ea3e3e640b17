#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "reference_potential.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::matrix_of;
using testing::move_potential_gap;
using testing::potential;
using testing::potential_delta;
using testing::power_law_game;

TEST(Potential, EmptyAllocationIsZero) {
  const GameModel game = constant_game(2, 3, 2);
  EXPECT_DOUBLE_EQ(potential(game, game.empty_strategy()), 0.0);
}

TEST(Potential, HandComputedValue) {
  // R = 1: Phi = sum_c H(k_c) (harmonic numbers).
  const GameModel game = constant_game(2, 2, 2);
  const auto matrix = matrix_of(game, {{2, 0}, {1, 1}});
  // loads (3,1): H(3) + H(1) = 1 + 1/2 + 1/3 + 1.
  EXPECT_NEAR(potential(game, matrix), 1.0 + 0.5 + 1.0 / 3.0 + 1.0, 1e-12);
}

TEST(PotentialDelta, MatchesRecomputation) {
  const GameModel game = power_law_game(4, 5, 3, 0.7);
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    const StrategyMatrix matrix = random_full_allocation(game, rng);
    for (UserId i = 0; i < 4; ++i) {
      for (ChannelId b = 0; b < 5; ++b) {
        if (matrix.at(i, b) == 0) continue;
        for (ChannelId c = 0; c < 5; ++c) {
          if (b == c) continue;
          const RadioMove move{i, b, c};
          StrategyMatrix after = matrix;
          after.apply(move);
          ASSERT_NEAR(potential_delta(game, matrix, move),
                      potential(game, after) - potential(game, matrix),
                      1e-12);
        }
      }
    }
  }
}

TEST(PotentialGap, ZeroForUnitMovers) {
  // When the mover has exactly one radio on the source and none on the
  // target, its benefit of change equals the potential delta exactly — the
  // singleton congestion-game case.
  const GameModel game = power_law_game(4, 5, 3, 1.0);
  Rng rng(505);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const StrategyMatrix matrix = random_full_allocation(game, rng);
    for (UserId i = 0; i < 4; ++i) {
      for (ChannelId b = 0; b < 5; ++b) {
        if (matrix.at(i, b) != 1) continue;
        for (ChannelId c = 0; c < 5; ++c) {
          if (b == c || matrix.at(i, c) != 0) continue;
          ASSERT_NEAR(move_potential_gap(game, matrix, {i, b, c}), 0.0, 1e-12);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(PotentialGap, NonZeroForMultiRadioMovers) {
  // A user holding several radios on the source channel perturbs its own
  // remaining radios: Phi is no longer exact.
  const GameModel game = constant_game(2, 2, 2);
  const auto matrix = matrix_of(game, {{2, 0}, {1, 1}});
  const double gap = move_potential_gap(game, matrix, {0, 0, 1});
  EXPECT_GT(std::abs(gap), 1e-6);
}

TEST(PotentialGap, ExactForSingleRadioGames) {
  // k = 1: the user game IS the singleton congestion game; every move's
  // benefit equals the potential delta.
  const GameModel game = power_law_game(5, 4, 1, 0.5);
  Rng rng(606);
  for (int trial = 0; trial < 300; ++trial) {
    const StrategyMatrix matrix = random_full_allocation(game, rng);
    for (UserId i = 0; i < 5; ++i) {
      for (ChannelId b = 0; b < 4; ++b) {
        if (matrix.at(i, b) == 0) continue;
        for (ChannelId c = 0; c < 4; ++c) {
          if (b == c) continue;
          ASSERT_NEAR(move_potential_gap(game, matrix, {i, b, c}), 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(Potential, SelfMoveDeltaIsZero) {
  const GameModel game = constant_game(2, 2, 2);
  const auto matrix = matrix_of(game, {{2, 0}, {1, 1}});
  EXPECT_DOUBLE_EQ(potential_delta(game, matrix, {0, 0, 0}), 0.0);
}

}  // namespace
}  // namespace mrca
