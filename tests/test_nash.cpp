#include "core/analysis/nash.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "reference_dynamics.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;
using testing::power_law_game;
using testing::reference_models;

TEST(EnumerateRows, CountsMatchStarsAndBars) {
  // Rows with sum <= k over C channels: C(k + C, C).
  EXPECT_EQ(enumerate_strategy_rows(3, 2).size(), 10u);  // C(5,3)
  // Full rows with sum == k: C(k + C - 1, C - 1).
  EXPECT_EQ(enumerate_full_rows(3, 2).size(), 6u);  // C(4,2)
}

TEST(EnumerateRows, AllRowsValidAndDistinct) {
  const auto rows = enumerate_strategy_rows(4, 3);
  std::set<std::vector<RadioCount>> seen;
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    RadioCount total = 0;
    for (const RadioCount x : row) {
      ASSERT_GE(x, 0);
      total += x;
    }
    ASSERT_LE(total, 3);
    seen.insert(row);
  }
  EXPECT_EQ(seen.size(), rows.size());
}

TEST(EnumerateRows, FullRowsDeployEverything) {
  for (const auto& row : enumerate_full_rows(3, 3)) {
    RadioCount total = 0;
    for (const RadioCount x : row) total += x;
    ASSERT_EQ(total, 3);
  }
}

TEST(ForEachStrategyMatrix, VisitsCartesianProduct) {
  const GameModel game = constant_game(2, 2, 1);
  // Rows with sum <= 1 over 2 channels: 3. Matrices: 3^2 = 9.
  std::size_t count = 0;
  const std::size_t visited = for_each_strategy_matrix(
      game, [&](const StrategyMatrix&) {
        ++count;
        return true;
      });
  EXPECT_EQ(count, 9u);
  EXPECT_EQ(visited, 9u);
}

TEST(ForEachStrategyMatrix, EarlyStop) {
  const GameModel game = constant_game(2, 2, 1);
  std::size_t count = 0;
  for_each_strategy_matrix(game, [&](const StrategyMatrix&) {
    ++count;
    return count < 4;
  });
  EXPECT_EQ(count, 4u);
}

TEST(IsNash, Figure1IsNotANash) {
  const GameModel game = constant_game(4, 5, 4);
  const auto matrix = matrix_of(game, figure1_rows());
  EXPECT_FALSE(game.is_nash_equilibrium(matrix));
  EXPECT_FALSE(is_single_move_stable(game, matrix));
  const auto violation = find_nash_violation(game, matrix);
  ASSERT_TRUE(violation.has_value());
  EXPECT_GT(violation->better_utility, violation->current_utility);
}

TEST(IsNash, SpreadBalancedIsNash) {
  const GameModel game = constant_game(4, 3, 2);
  const auto matrix =
      matrix_of(game, {{1, 1, 0}, {1, 1, 0}, {1, 0, 1}, {0, 1, 1}});
  EXPECT_TRUE(game.is_nash_equilibrium(matrix));
  EXPECT_TRUE(is_single_move_stable(game, matrix));
  EXPECT_FALSE(find_nash_violation(game, matrix).has_value());
}

TEST(IsNash, NashImpliesSingleMoveStable) {
  // Full-deviation stability is strictly stronger than single-move
  // stability; verify the implication over random states.
  const GameModel game = power_law_game(3, 4, 2, 1.0);
  Rng rng(314);
  int nash_count = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(game, rng);
    if (game.is_nash_equilibrium(matrix)) {
      ++nash_count;
      EXPECT_TRUE(is_single_move_stable(game, matrix)) << matrix.key();
    }
  }
  // Sanity: the sweep actually encountered some equilibria.
  (void)nash_count;
}

TEST(IsNash, StabilityLayersAgreeOrNestOnEnumeration) {
  // Single-move stability is implied by full Nash stability (single changes
  // are a subset of the deviations the best-response DP searches). The
  // reverse direction is not guaranteed in general; this sweep enumerates a
  // whole small game and (a) asserts the provable inclusion, (b) records
  // how often the checkers disagree — the theorem-audit bench reports the
  // same quantity at larger sizes.
  const GameModel game = power_law_game(2, 3, 2, 2.0);
  std::size_t stable_not_nash = 0;
  for_each_strategy_matrix(game, [&](const StrategyMatrix& matrix) {
    const bool nash = game.is_nash_equilibrium(matrix);
    const bool stable = is_single_move_stable(game, matrix);
    if (nash) {
      EXPECT_TRUE(stable) << matrix.key();
    }
    if (stable && !nash) ++stable_not_nash;
    return true;
  });
  ::testing::Test::RecordProperty("single_move_stable_but_not_nash",
                                  static_cast<int>(stable_not_nash));
}

/// Layer 2 by its definition: no user has any improving single change.
bool no_improving_change(const GameModel& model,
                         const StrategyMatrix& strategies) {
  for (UserId user = 0; user < model.num_users(); ++user) {
    if (!model.improving_changes_for_user(strategies, user).empty()) {
      return false;
    }
  }
  return true;
}

TEST(StabilityCheck, OneCheckAgreesWithBruteForceAcrossMutations) {
  // One check lives through every game in turn (so games of 7, 5 and 8
  // users inherit each other's cursors) and through a walk of single-radio
  // mutations on each: a random user's uniformly random change, or on odd
  // steps an improving one, so the walk also reaches stable states.
  StabilityCheck check;
  std::size_t stable = 0;
  std::size_t unstable = 0;
  std::size_t wraps = 0;
  Rng rng(2718);
  for (const GameModel& model : reference_models()) {
    StrategyMatrix state = random_full_allocation(model, rng);
    for (int step = 0; step < 300; ++step) {
      const UserId before = check.cursor();
      const bool holds = check.holds(model, state);
      ASSERT_EQ(holds, no_improving_change(model, state)) << state.key();
      EXPECT_EQ(is_single_move_stable(model, state), holds);
      ASSERT_LT(check.cursor(), model.num_users());
      if (holds) {
        ++stable;
      } else {
        ++unstable;
        // The cursor rests on the witness.
        EXPECT_FALSE(
            model.improving_changes_for_user(state, check.cursor()).empty());
        if (before < model.num_users() && check.cursor() < before) ++wraps;
      }
      const auto user = static_cast<UserId>(rng.index(model.num_users()));
      const double tolerance = step % 2 == 1
                                   ? kUtilityTolerance
                                   : -std::numeric_limits<double>::infinity();
      const std::vector<SingleChange> changes =
          model.improving_changes_for_user(state, user, tolerance);
      if (!changes.empty()) {
        testing::apply_change(state, changes[rng.index(changes.size())]);
      }
    }
  }
  EXPECT_GT(stable, 0u);
  EXPECT_GT(unstable, 0u);
  EXPECT_GT(wraps, 0u);
}

TEST(StabilityCheck, WrapsAroundToAWitnessBelowTheCursor) {
  // Constant rate, one radio each: a parked user gains by deploying onto
  // the idle channel; the two deployed users sit alone and are content.
  const GameModel game = constant_game(3, 3, 1);
  StabilityCheck check;
  EXPECT_FALSE(check.holds(game, matrix_of(game, {{1, 0, 0},
                                                  {0, 1, 0},
                                                  {0, 0, 0}})));
  EXPECT_EQ(check.cursor(), 2u);
  // Only user 0, below the cursor, is unstable now.
  const auto below = matrix_of(game, {{0, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  EXPECT_FALSE(check.holds(game, below));
  EXPECT_EQ(check.cursor(), 0u);
  // A clean cycle holds and leaves the cursor where it started.
  EXPECT_TRUE(check.holds(game, matrix_of(game, {{1, 0, 0},
                                                 {0, 1, 0},
                                                 {0, 0, 1}})));
  EXPECT_EQ(check.cursor(), 0u);
}

TEST(StabilityCheck, CursorFromALargerGameRestartsAtUserZero) {
  const GameModel small = constant_game(2, 2, 1);
  const auto small_unstable = matrix_of(small, {{0, 0}, {0, 1}});
  const auto small_stable = matrix_of(small, {{1, 0}, {0, 1}});
  for (const std::size_t users : {3u, 4u}) {
    // The last user of the larger game is its only witness, leaving the
    // cursor at (3 users) or past (4 users) the small game's user count.
    const GameModel large = constant_game(users, users, 1);
    StrategyMatrix parked_last = large.empty_strategy();
    for (UserId user = 0; user + 1 < users; ++user) {
      parked_last.add_radio(user, user);
    }
    for (const bool stable : {false, true}) {
      StabilityCheck check;
      ASSERT_FALSE(check.holds(large, parked_last));
      ASSERT_EQ(check.cursor(), users - 1);
      EXPECT_EQ(check.holds(small, stable ? small_stable : small_unstable),
                stable);
      EXPECT_EQ(check.cursor(), 0u);
    }
  }
}

TEST(EnumerateNash, FlatAllocationsInNoConflictRegime) {
  // N*k = 2 <= C = 2 (Fact 1): the NE are exactly the allocations with one
  // radio per channel... plus nothing else deploys both users fully.
  const GameModel game = constant_game(2, 2, 1);
  const auto equilibria = enumerate_nash_equilibria(game);
  // u1 on c1 & u2 on c2, or u1 on c2 & u2 on c1.
  ASSERT_EQ(equilibria.size(), 2u);
  for (const auto& ne : equilibria) {
    EXPECT_EQ(ne.channel_load(0), 1);
    EXPECT_EQ(ne.channel_load(1), 1);
  }
}

TEST(EnumerateNash, ConflictRegimeLoadsAreBalanced) {
  // Every brute-force NE must satisfy Proposition 1 (loads differ <= 1)
  // and Lemma 1 (full deployment) — here validated with no shortcuts.
  const GameModel game = constant_game(3, 2, 2);  // T=6 over C=2: loads (3,3)
  const auto equilibria = enumerate_nash_equilibria(game);
  ASSERT_FALSE(equilibria.empty());
  for (const auto& ne : equilibria) {
    EXPECT_TRUE(ne.all_radios_deployed());
    EXPECT_LE(ne.max_load() - ne.min_load(), 1);
  }
}

TEST(EnumerateNash, FullDeploymentFilterMatchesLemma1) {
  // With constant R the NE sets with and without the parked-radio strategy
  // space coincide (parking is never strictly profitable, and any NE must
  // deploy fully by Lemma 1).
  const GameModel game = constant_game(2, 3, 2);
  const auto all = enumerate_nash_equilibria(game);
  const auto full_only =
      enumerate_nash_equilibria(game, kUtilityTolerance, true);
  ASSERT_EQ(all.size(), full_only.size());
  for (const auto& ne : all) {
    EXPECT_TRUE(ne.all_radios_deployed());
  }
}

TEST(Tolerance, LooseToleranceAcceptsNearEquilibria) {
  const GameModel game = constant_game(3, 3, 1);
  // Two users share c0; moving to c2 gains 0.5. A tolerance above 0.5
  // declares the state "stable enough".
  const auto matrix = matrix_of(game, {{1, 0, 0}, {1, 0, 0}, {0, 1, 0}});
  EXPECT_FALSE(game.is_nash_equilibrium(matrix));
  EXPECT_TRUE(game.is_nash_equilibrium(matrix, 0.75));
}

}  // namespace
}  // namespace mrca
