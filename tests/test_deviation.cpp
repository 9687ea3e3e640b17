#include "core/analysis/deviation.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/nash.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;
using testing::power_law_game;

TEST(MoveBenefit, RequiresRadioOnSource) {
  const GameModel game = constant_game(2, 3, 2);
  const StrategyMatrix matrix = game.empty_strategy();
  EXPECT_THROW(move_benefit(game, matrix, {0, 0, 1}), std::logic_error);
}

TEST(MoveBenefit, SelfMoveIsZero) {
  const GameModel game = constant_game(2, 3, 2);
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 1);
  EXPECT_DOUBLE_EQ(move_benefit(game, matrix, {0, 1, 1}), 0.0);
}

/// Cross-check the O(1) benefit formulas against full utility recomputation
/// over thousands of random states and random rate functions.
class BenefitFormulaProperty
    : public ::testing::TestWithParam<std::shared_ptr<const RateFunction>> {};

TEST_P(BenefitFormulaProperty, MoveMatchesRecomputation) {
  const GameModel game(GameConfig(4, 5, 3), GetParam());
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    StrategyMatrix matrix = random_partial_allocation(game, rng);
    for (UserId i = 0; i < 4; ++i) {
      for (ChannelId b = 0; b < 5; ++b) {
        if (matrix.at(i, b) == 0) continue;
        for (ChannelId c = 0; c < 5; ++c) {
          if (b == c) continue;
          const double fast = move_benefit(game, matrix, {i, b, c});
          const double before = game.utility(matrix, i);
          StrategyMatrix changed = matrix;
          changed.move_radio(i, b, c);
          const double slow = game.utility(changed, i) - before;
          ASSERT_NEAR(fast, slow, 1e-12)
              << "user " << i << " move " << b << "->" << c << " in "
              << matrix.key();
        }
      }
    }
  }
}

TEST_P(BenefitFormulaProperty, DeployAndParkMatchRecomputation) {
  const GameModel game(GameConfig(4, 5, 3), GetParam());
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    StrategyMatrix matrix = random_partial_allocation(game, rng);
    for (UserId i = 0; i < 4; ++i) {
      for (ChannelId c = 0; c < 5; ++c) {
        if (matrix.spare_radios(i) > 0) {
          const double fast = deploy_benefit(game, matrix, i, c);
          StrategyMatrix changed = matrix;
          changed.add_radio(i, c);
          ASSERT_NEAR(fast,
                      game.utility(changed, i) - game.utility(matrix, i),
                      1e-12);
        }
        if (matrix.at(i, c) > 0) {
          const double fast = park_benefit(game, matrix, i, c);
          StrategyMatrix changed = matrix;
          changed.remove_radio(i, c);
          ASSERT_NEAR(fast,
                      game.utility(changed, i) - game.utility(matrix, i),
                      1e-12);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RateFamilies, BenefitFormulaProperty,
    ::testing::Values(std::make_shared<ConstantRate>(1.0),
                      std::make_shared<PowerLawRate>(1.0, 0.5),
                      std::make_shared<PowerLawRate>(1.0, 2.0),
                      std::make_shared<GeometricDecayRate>(1.0, 0.7),
                      std::make_shared<LinearDecayRate>(1.0, 0.05)));

TEST(DeployBenefit, PositiveExactlyWhenChannelNotMonopolized) {
  // Constant R: deploying a spare radio strictly helps unless the user
  // already owns every radio on a non-empty channel (then the new radio
  // only splits the user's own share). Deploying on a channel with any
  // opponent radio — in particular any channel in C \ C_i, the move behind
  // Lemma 1 — is strictly profitable.
  const GameModel game = constant_game(3, 4, 3);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    StrategyMatrix matrix = random_partial_allocation(game, rng);
    for (UserId i = 0; i < 3; ++i) {
      if (matrix.spare_radios(i) == 0) continue;
      for (ChannelId c = 0; c < 4; ++c) {
        const double benefit = deploy_benefit(game, matrix, i, c);
        const bool monopolized = matrix.at(i, c) == matrix.channel_load(c) &&
                                 matrix.channel_load(c) > 0;
        if (monopolized) {
          EXPECT_NEAR(benefit, 0.0, 1e-12);
        } else {
          EXPECT_GT(benefit, 0.0);
        }
      }
    }
  }
}

TEST(ParkBenefit, NeverPositiveForConstantRate) {
  // With constant R a radio's share never hurts its owner, so parking can't
  // strictly help.
  const GameModel game = constant_game(3, 4, 3);
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    StrategyMatrix matrix = random_full_allocation(game, rng);
    for (UserId i = 0; i < 3; ++i) {
      for (ChannelId c = 0; c < 4; ++c) {
        if (matrix.at(i, c) == 0) continue;
        EXPECT_LE(park_benefit(game, matrix, i, c), 1e-12);
      }
    }
  }
}

TEST(ParkBenefit, CanBePositiveForSteepRate) {
  // R(k) = 1/k^2: a user with both radios of a 2-radio channel gains by
  // withdrawing one (R(1) = 1 > R(2) = 0.25).
  const GameModel game = power_law_game(2, 3, 2, 2.0);
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 0);
  matrix.add_radio(0, 0);
  EXPECT_GT(park_benefit(game, matrix, 0, 0), 0.0);
}

TEST(BestSingleChange, FindsTheObviousMove) {
  // User 0's radio shares a crowded channel; an empty channel beckons.
  const GameModel game = constant_game(3, 3, 1);
  const auto matrix = matrix_of(game, {{1, 0, 0}, {1, 0, 0}, {1, 0, 0}});
  const auto change = game.best_single_change(matrix, 0);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(change->kind, SingleChange::Kind::kMove);
  EXPECT_EQ(change->from, 0u);
  // 1/3 -> 1.0 on either empty channel.
  EXPECT_NEAR(change->benefit, 1.0 - 1.0 / 3.0, 1e-12);
}

TEST(BestSingleChange, NoneAtStableState) {
  const GameModel game = constant_game(3, 3, 1);
  const auto matrix = matrix_of(game, {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  EXPECT_FALSE(game.best_single_change(matrix, 0).has_value());
  EXPECT_FALSE(game.best_single_change(matrix, 1).has_value());
}

TEST(BestSingleChange, PrefersDeployWhenSparesExist) {
  const GameModel game = constant_game(2, 4, 2);
  auto matrix = game.empty_strategy();
  matrix.add_radio(0, 0);  // user 0 has one spare
  const auto change = game.best_single_change(matrix, 0);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(change->kind, SingleChange::Kind::kDeploy);
  EXPECT_NEAR(change->benefit, 1.0, 1e-12);  // an empty channel's full rate
}

TEST(ImprovingChangesForUser, EnumeratesFigure1Deviations) {
  const GameModel game = constant_game(4, 5, 4);
  const auto matrix = matrix_of(game, figure1_rows());
  const auto changes = game.improving_changes_for_user(matrix, 0);
  EXPECT_FALSE(changes.empty());
  // The text's Lemma 2 witness: u1 moving c4 -> c5 gains 1 - 1/3 > 0... as a
  // raw move benefit: from share 1/3 on load-3 c4 to share 1/2 on load-2 c5.
  bool found_u1_c4_to_c5 = false;
  for (const auto& change : changes) {
    if (change.kind == SingleChange::Kind::kMove && change.user == 0 &&
        change.from == 3 && change.to == 4) {
      found_u1_c4_to_c5 = true;
      EXPECT_NEAR(change.benefit, 0.5 - 1.0 / 3.0, 1e-12);
    }
  }
  EXPECT_TRUE(found_u1_c4_to_c5);
}

TEST(UtilityIfPlayed, MatchesSetRow) {
  const GameModel game = power_law_game(3, 4, 3, 1.0);
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    StrategyMatrix matrix = random_full_allocation(game, rng);
    const std::vector<RadioCount> row = {1, 0, 2, 0};
    const double predicted = utility_if_played(game, matrix, 1, row);
    StrategyMatrix changed = matrix;
    changed.set_row(1, row);
    EXPECT_NEAR(predicted, game.utility(changed, 1), 1e-12);
  }
}

TEST(UtilityIfPlayed, RejectsWrongWidth) {
  const GameModel game = constant_game(2, 3, 1);
  const StrategyMatrix matrix = game.empty_strategy();
  const std::vector<RadioCount> row = {1, 0};
  EXPECT_THROW(utility_if_played(game, matrix, 0, row),
               std::invalid_argument);
}

/// THE oracle test: the DP best response must match exhaustive enumeration
/// of every alternative strategy row, for every user, over random states
/// and several rate families.
class BestResponseOracle
    : public ::testing::TestWithParam<
          std::tuple<std::shared_ptr<const RateFunction>, std::uint64_t>> {};

TEST_P(BestResponseOracle, DpEqualsEnumeration) {
  const auto& [rate, seed] = GetParam();
  const GameModel game(GameConfig(3, 4, 3), rate);
  Rng rng(seed);
  const auto all_rows =
      enumerate_strategy_rows(game.num_channels(), game.budget(0));
  for (int trial = 0; trial < 60; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(game, rng);
    for (UserId i = 0; i < 3; ++i) {
      const BestResponse dp = game.best_response(matrix, i);
      double best_enumerated = 0.0;
      for (const auto& row : all_rows) {
        best_enumerated = std::max(
            best_enumerated, utility_if_played(game, matrix, i, row));
      }
      ASSERT_NEAR(dp.utility, best_enumerated, 1e-10)
          << "user " << i << " state " << matrix.key();
      // The DP's reconstructed strategy must achieve its claimed value.
      ASSERT_NEAR(utility_if_played(game, matrix, i, dp.strategy), dp.utility,
                  1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RateFamiliesAndSeeds, BestResponseOracle,
    ::testing::Combine(
        ::testing::Values(std::make_shared<ConstantRate>(1.0),
                          std::make_shared<PowerLawRate>(1.0, 0.5),
                          std::make_shared<PowerLawRate>(1.0, 2.0),
                          std::make_shared<GeometricDecayRate>(1.0, 0.6)),
        ::testing::Values(1u, 2u, 3u)));

TEST(BestResponse, UsesAllRadiosForConstantRate) {
  // Lemma 1's engine: with R > 0 constant, the best response never parks.
  const GameModel game = constant_game(3, 4, 3);
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const StrategyMatrix matrix = random_partial_allocation(game, rng);
    for (UserId i = 0; i < 3; ++i) {
      const BestResponse response = game.best_response(matrix, i);
      RadioCount total = 0;
      for (const RadioCount x : response.strategy) total += x;
      EXPECT_EQ(total, 3) << matrix.key();
    }
  }
}

}  // namespace
}  // namespace mrca
