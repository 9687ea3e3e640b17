#include "core/analysis/lemmas.h"

#include <gtest/gtest.h>

#include "core/analysis/deviation.h"
#include "core/analysis/nash.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;

/// Figure 1 fixture: the paper's worked non-equilibrium example.
class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test()
      : game_(constant_game(4, 5, 4)),
        matrix_(matrix_of(game_, figure1_rows())) {}
  GameModel game_;
  StrategyMatrix matrix_;
};

TEST_F(Figure1Test, Lemma1FlagsU2AndU4) {
  // "Lemma 1 does not hold for users u2 and u4" (k_{u2}=3, k_{u4}=2).
  const auto violations = lemma1_violations(matrix_);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].user, 1u);
  EXPECT_EQ(violations[1].user, 3u);
}

TEST_F(Figure1Test, Lemma2HoldsForU1C4C5) {
  // "Lemma 2 holds e.g. for user u1 and the channels b=c4 and c=c5."
  const auto violations = lemma2_violations(matrix_);
  bool found = false;
  for (const auto& v : violations) {
    if (v.user == 0 && v.channel_b == 3 && v.channel_c == 4) found = true;
    // Every reported witness satisfies the lemma's hypothesis.
    EXPECT_GT(matrix_.at(v.user, v.channel_b), 0);
    EXPECT_EQ(matrix_.at(v.user, v.channel_c), 0);
    EXPECT_GT(matrix_.load_difference(v.channel_b, v.channel_c), 1);
  }
  EXPECT_TRUE(found);
}

TEST_F(Figure1Test, Lemma3HoldsForU3C2C3) {
  // "the conditions of Lemma 3 hold for user u3 and b=c2, c=c3."
  const auto violations = lemma3_violations(matrix_);
  bool found = false;
  for (const auto& v : violations) {
    if (v.user == 2 && v.channel_b == 1 && v.channel_c == 2) found = true;
    EXPECT_GT(matrix_.at(v.user, v.channel_b), 1);
    EXPECT_EQ(matrix_.at(v.user, v.channel_c), 0);
    EXPECT_EQ(matrix_.load_difference(v.channel_b, v.channel_c), 1);
  }
  EXPECT_TRUE(found);
}

TEST_F(Figure1Test, Proposition1FailsOnFigure1) {
  // loads (4,3,2,3,1): delta = 3 > 1.
  EXPECT_FALSE(proposition1_holds(matrix_));
}

TEST_F(Figure1Test, Theorem1RejectsFigure1) {
  const Theorem1Result result = check_theorem1(matrix_);
  EXPECT_TRUE(result.applicable);  // 16 > 5
  EXPECT_FALSE(result.full_deployment);
  EXPECT_FALSE(result.condition1);
  EXPECT_FALSE(result.predicts_nash());
  EXPECT_FALSE(result.violations.empty());
}

TEST_F(Figure1Test, EveryLemmaWitnessIsAProfitableMove) {
  // The lemmas are constructive: each witness names a strictly improving
  // single-radio move. Verify against the exact benefit.
  for (const auto& v : lemma2_violations(matrix_)) {
    EXPECT_GT(move_benefit(game_, matrix_, {v.user, v.channel_b, v.channel_c}),
              0.0)
        << v.condition << " " << v.detail;
  }
  for (const auto& v : lemma3_violations(matrix_)) {
    EXPECT_GT(move_benefit(game_, matrix_, {v.user, v.channel_b, v.channel_c}),
              0.0);
  }
  for (const auto& v : lemma4_violations(matrix_)) {
    EXPECT_GT(move_benefit(game_, matrix_, {v.user, v.channel_b, v.channel_c}),
              0.0);
  }
}

TEST(Lemma4, FiresOnEqualLoadStacking) {
  // User 0 stacks 2 radios on c0 while c2 (equal load) is empty for them.
  const GameModel game = constant_game(2, 3, 2);
  const auto matrix = matrix_of(game, {{2, 0, 0}, {0, 1, 1}});
  // loads (2,1,1): delta(c0,c1)=1 -> Lemma 3 territory, not Lemma 4.
  EXPECT_TRUE(lemma4_violations(matrix).empty());
  const auto l3 = lemma3_violations(matrix);
  EXPECT_FALSE(l3.empty());

  const GameModel game2 = constant_game(3, 3, 2);
  const auto matrix2 = matrix_of(game2, {{2, 0, 0}, {0, 1, 1}, {0, 1, 1}});
  // loads (2,2,2): user 0 has gamma=2 vs both empty channels, delta=0.
  const auto l4 = lemma4_violations(matrix2);
  ASSERT_EQ(l4.size(), 2u);
  EXPECT_EQ(l4[0].user, 0u);
}

TEST(Lemma2, NoFalsePositivesOnBalancedAllocation) {
  const GameModel game = constant_game(2, 4, 2);
  const auto matrix = matrix_of(game, {{1, 1, 0, 0}, {0, 0, 1, 1}});
  EXPECT_TRUE(lemma2_violations(matrix).empty());
  EXPECT_TRUE(lemma3_violations(matrix).empty());
  EXPECT_TRUE(lemma4_violations(matrix).empty());
  EXPECT_TRUE(proposition1_holds(matrix));
}

TEST(Fact1, RegimeDetection) {
  EXPECT_TRUE(fact1_applies(GameConfig(2, 6, 2)));   // 4 <= 6
  EXPECT_TRUE(fact1_applies(GameConfig(3, 6, 2)));   // 6 <= 6
  EXPECT_FALSE(fact1_applies(GameConfig(4, 6, 2)));  // 8 > 6
}

TEST(Fact1, FlatAllocationDetection) {
  const GameModel game = constant_game(2, 4, 2);
  EXPECT_TRUE(is_flat_allocation(
      matrix_of(game, {{1, 1, 0, 0}, {0, 0, 1, 1}})));
  EXPECT_FALSE(is_flat_allocation(
      matrix_of(game, {{2, 0, 0, 0}, {0, 0, 1, 1}})));
  EXPECT_FALSE(is_flat_allocation(game.empty_strategy()));
}

TEST(Fact1, FlatAllocationIsNashInNoConflictRegime) {
  // |N|*k = 4 <= |C| = 5: one radio per occupied channel is a NE.
  const GameModel game = constant_game(2, 5, 2);
  const auto matrix = matrix_of(game, {{1, 1, 0, 0, 0}, {0, 0, 1, 1, 0}});
  EXPECT_TRUE(is_nash_equilibrium(game, matrix));
}

TEST(Theorem1, NotApplicableWithoutConflict) {
  const GameModel game = constant_game(2, 5, 2);
  const auto matrix = matrix_of(game, {{1, 1, 0, 0, 0}, {0, 0, 1, 1, 0}});
  const auto result = check_theorem1(matrix);
  EXPECT_FALSE(result.applicable);
  EXPECT_FALSE(result.predicts_nash());
}

TEST(Theorem1, AcceptsSpreadBalancedAllocation) {
  // N=4, k=2, C=3 -> loads must be (3,3,2); all users spread.
  const GameModel game = constant_game(4, 3, 2);
  const auto matrix =
      matrix_of(game, {{1, 1, 0}, {1, 1, 0}, {1, 0, 1}, {0, 1, 1}});
  const auto result = check_theorem1(matrix);
  EXPECT_TRUE(result.applicable);
  EXPECT_TRUE(result.full_deployment);
  EXPECT_TRUE(result.condition1);
  EXPECT_TRUE(result.condition2);
  EXPECT_TRUE(result.predicts_nash());
  EXPECT_TRUE(result.violations.empty());
}

TEST(Theorem1, RejectsNonExceptionStacking) {
  // User 0 stacks on a channel but misses a min-loaded channel.
  const GameModel game = constant_game(3, 3, 2);
  const auto matrix = matrix_of(game, {{2, 0, 0}, {0, 1, 1}, {0, 1, 1}});
  const auto result = check_theorem1(matrix);
  EXPECT_TRUE(result.condition1);  // loads (2,2,2)
  EXPECT_FALSE(result.condition2);
  EXPECT_FALSE(result.predicts_nash());
}

TEST(Theorem1, ExceptionClauseAdmitsDocumentedCounterexample) {
  // README "Reproduction findings" example: N=4, k=2, C=3; user 0 =
  // (2,0,0); loads (2,3,3).
  // The PRINTED theorem accepts it (user 0 covers the only min channel,
  // gamma within bounds, nothing stacked on a max channel), yet it is not
  // actually a Nash equilibrium — the audit tests pin this divergence.
  const GameModel game = constant_game(4, 3, 2);
  const auto matrix =
      matrix_of(game, {{2, 0, 0}, {0, 1, 1}, {0, 1, 1}, {0, 1, 1}});
  const auto result = check_theorem1(matrix);
  EXPECT_TRUE(result.predicts_nash());
  EXPECT_FALSE(is_nash_equilibrium(game, matrix));
  // The profitable deviation moves a radio from the user's own min-loaded
  // monopoly onto a busier channel — the direction the lemmas never check.
  const auto change = game.best_single_change(matrix, 0);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(change->kind, SingleChange::Kind::kMove);
  EXPECT_EQ(change->from, 0u);
  EXPECT_NEAR(change->benefit, 0.25, 1e-12);  // R(1)+R(4)/4 - R(2) = 1/4
}

TEST(Theorem1, AllLoadsEqualDegenerateCase) {
  // Every channel both min- and max-loaded: spread users, no exceptions.
  const GameModel game = constant_game(3, 3, 2);
  const auto matrix = matrix_of(game, {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}});
  const auto result = check_theorem1(matrix);
  EXPECT_TRUE(result.predicts_nash());
  EXPECT_TRUE(is_nash_equilibrium(game, matrix));
}

}  // namespace
}  // namespace mrca
