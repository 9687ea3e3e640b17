#include "core/alloc/sequential.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <tuple>

#include "common/rng.h"
#include "core/analysis/lemmas.h"
#include "core/analysis/nash.h"
#include "core/analysis/pareto.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::power_law_game;

TEST(Algorithm1, PaperExampleDimensions) {
  // The Figure 5 setting: N=4, k=4, C=6.
  const GameModel game = constant_game(4, 6, 4);
  const StrategyMatrix result = sequential_allocation(game);
  EXPECT_TRUE(result.all_radios_deployed());
  EXPECT_LE(result.max_load() - result.min_load(), 1);
  EXPECT_TRUE(game.is_nash_equilibrium(result));
  EXPECT_TRUE(check_theorem1(result).predicts_nash());
  // Constant R: the NE is also system-optimal (Theorem 2).
  EXPECT_NEAR(game.welfare(result), game.optimal_welfare(), 1e-12);
}

TEST(Algorithm1, SpreadsEachUsersRadios) {
  // From an empty start the allocator never stacks a user's radios.
  const GameModel game = constant_game(7, 6, 4);
  const StrategyMatrix result = sequential_allocation(game);
  for (UserId i = 0; i < 7; ++i) {
    for (ChannelId c = 0; c < 6; ++c) {
      EXPECT_LE(result.at(i, c), 1);
    }
  }
}

TEST(Algorithm1, NoConflictRegimeGivesFlatAllocation) {
  // N*k <= C: every radio lands on its own channel (Fact 1's NE).
  const GameModel game = constant_game(2, 6, 3);
  const StrategyMatrix result = sequential_allocation(game);
  EXPECT_EQ(result.max_load(), 1);
  EXPECT_TRUE(game.is_nash_equilibrium(result));
}

TEST(Algorithm1, RespectsUserOrder) {
  const GameModel game = constant_game(3, 3, 1);
  SequentialOptions options;
  options.user_order = {2, 0, 1};
  const StrategyMatrix result = sequential_allocation(game, options);
  // First allocator (user 2) takes channel 0 under lowest-index tie-break.
  EXPECT_EQ(result.at(2, 0), 1);
  EXPECT_EQ(result.at(0, 1), 1);
  EXPECT_EQ(result.at(1, 2), 1);
}

TEST(Algorithm1, RejectsBadOrders) {
  const GameModel game = constant_game(3, 3, 1);
  SequentialOptions repeated;
  repeated.user_order = {0, 0, 1};
  EXPECT_THROW(sequential_allocation(game, repeated), std::invalid_argument);
  SequentialOptions short_list;
  short_list.user_order = {0, 1};
  EXPECT_THROW(sequential_allocation(game, short_list), std::invalid_argument);
  SequentialOptions out_of_range;
  out_of_range.user_order = {0, 1, 7};
  EXPECT_THROW(sequential_allocation(game, out_of_range),
               std::invalid_argument);
}

TEST(Algorithm1, RandomTieBreakNeedsRng) {
  const GameModel game = constant_game(2, 3, 1);
  SequentialOptions options;
  options.tie_break = TieBreak::kRandom;
  EXPECT_THROW(sequential_allocation(game, options), std::invalid_argument);
  Rng rng(1);
  EXPECT_NO_THROW(sequential_allocation(game, options, &rng));
}

TEST(Algorithm1, RandomTieBreakIsSeedDeterministic) {
  const GameModel game = constant_game(5, 6, 3);
  SequentialOptions options;
  options.tie_break = TieBreak::kRandom;
  Rng rng_a(42);
  Rng rng_b(42);
  const auto a = sequential_allocation(game, options, &rng_a);
  const auto b = sequential_allocation(game, options, &rng_b);
  EXPECT_TRUE(a == b);
  Rng rng_c(43);
  const auto c = sequential_allocation(game, options, &rng_c);
  // Same equilibrium structure even when the draw differs.
  EXPECT_TRUE(game.is_nash_equilibrium(c));
}

TEST(Algorithm1, IncrementalJoinPreservesEquilibrium) {
  // Users arrive one at a time into a live allocation (the cognitive-radio
  // scenario): each join lands on least-loaded channels; after all joins
  // the state is exactly an Algorithm 1 outcome.
  const GameModel game = constant_game(4, 5, 3);
  StrategyMatrix live = game.empty_strategy();
  for (UserId i = 0; i < 4; ++i) {
    allocate_user_sequentially(game, live, i);
    EXPECT_LE(live.max_load() - live.min_load(), 1) << "after user " << i;
  }
  EXPECT_TRUE(game.is_nash_equilibrium(live));
  EXPECT_THROW(allocate_user_sequentially(game, live, 0), std::logic_error);
}

TEST(PlaceOneRadio, PrefersUnusedMinChannels) {
  const GameModel game = constant_game(2, 3, 2);
  StrategyMatrix matrix = game.empty_strategy();
  // Loads (1,1,0) with user 0 on c0: min is c2.
  matrix.add_radio(0, 0);
  matrix.add_radio(1, 1);
  const ChannelId chosen = place_one_radio(game, matrix, 0);
  EXPECT_EQ(chosen, 2u);
}

TEST(PlaceOneRadio, AllEqualRuleAvoidsOwnChannels) {
  const GameModel game = constant_game(2, 3, 2);
  StrategyMatrix matrix = game.empty_strategy();
  matrix.add_radio(0, 0);
  matrix.add_radio(1, 1);
  matrix.add_radio(1, 2);
  // Loads (1,1,1) all equal; user 0 must pick a channel where it has no
  // radio (c1 or c2; lowest index -> c1).
  const ChannelId chosen = place_one_radio(game, matrix, 0);
  EXPECT_EQ(chosen, 1u);
}

/// Parameterized sweep: Algorithm 1 yields a Theorem-1, single-move-stable,
/// fully Nash-stable, Pareto-certified allocation for every configuration
/// and rate family in the grid (the paper's central algorithmic claim).
using SweepParam =
    std::tuple<std::size_t, std::size_t, RadioCount,
               std::shared_ptr<const RateFunction>>;

class Algorithm1Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Algorithm1Sweep, ProducesNashEquilibrium) {
  const auto& [users, channels, radios, rate] = GetParam();
  if (static_cast<std::size_t>(radios) > channels) GTEST_SKIP();
  const GameModel game(GameConfig(users, channels, radios), rate);
  const StrategyMatrix result = sequential_allocation(game);

  EXPECT_TRUE(result.all_radios_deployed());
  EXPECT_LE(result.max_load() - result.min_load(), 1);
  EXPECT_TRUE(is_single_move_stable(game, result)) << result.key();
  EXPECT_TRUE(game.is_nash_equilibrium(result)) << result.key();
  if (game.config().has_conflict()) {
    EXPECT_TRUE(check_theorem1(result).predicts_nash()) << result.key();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, Algorithm1Sweep,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 2, 3, 4, 7, 10),
        ::testing::Values<std::size_t>(2, 3, 5, 6),
        ::testing::Values<RadioCount>(1, 2, 4),
        ::testing::Values(std::make_shared<ConstantRate>(1.0),
                          std::make_shared<PowerLawRate>(1.0, 0.5),
                          std::make_shared<PowerLawRate>(1.0, 2.0),
                          std::make_shared<GeometricDecayRate>(1.0, 0.7))));

/// Larger instances: the Nash check runs the DP oracle, so keep N moderate;
/// checks load balance and stability only (Pareto enumeration intractable).
TEST(Algorithm1, LargeInstanceStillEquilibrium) {
  const GameModel game = constant_game(40, 11, 7);
  const StrategyMatrix result = sequential_allocation(game);
  EXPECT_LE(result.max_load() - result.min_load(), 1);
  EXPECT_TRUE(game.is_nash_equilibrium(result));
}

/// Algorithm 1 touches each user's own row and the channel loads only, so
/// a pass is linear in N; at this size a per-user re-validation of the
/// whole matrix (quadratic) would not finish inside the ctest timeout.
TEST(Algorithm1, ScalesLinearlyToTwoHundredThousandUsers) {
  const GameModel game = constant_game(200000, 12, 4);  // tdma
  const StrategyMatrix result = sequential_allocation(game);
  EXPECT_TRUE(result.all_radios_deployed());
  EXPECT_EQ(result.total_deployed(), game.config().total_radios());
  EXPECT_LE(result.max_load() - result.min_load(), 1);
}

TEST(Algorithm1, EveryUserOrderYieldsEquilibrium) {
  const GameModel game = power_law_game(4, 4, 2, 1.0);
  std::vector<UserId> order = {0, 1, 2, 3};
  std::sort(order.begin(), order.end());
  do {
    SequentialOptions options;
    options.user_order = order;
    const StrategyMatrix result = sequential_allocation(game, options);
    ASSERT_TRUE(game.is_nash_equilibrium(result));
  } while (std::next_permutation(order.begin(), order.end()));
}

}  // namespace
}  // namespace mrca
