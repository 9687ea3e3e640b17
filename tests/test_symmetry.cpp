#include "core/analysis/symmetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "core/alloc/random_alloc.h"
#include "core/analysis/nash.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::matrix_of;

TEST(Symmetry, PermuteUsersReordersRows) {
  const GameModel game = constant_game(3, 2, 2);
  const auto matrix = matrix_of(game, {{2, 0}, {1, 1}, {0, 2}});
  const std::vector<UserId> perm = {2, 0, 1};
  const StrategyMatrix permuted = permute_users(matrix, perm);
  EXPECT_EQ(permuted.at(0, 1), 2);  // old row 2
  EXPECT_EQ(permuted.at(1, 0), 2);  // old row 0
  EXPECT_EQ(permuted.at(2, 0), 1);  // old row 1
}

TEST(Symmetry, PermuteChannelsReordersColumns) {
  const GameModel game = constant_game(2, 3, 2);
  const auto matrix = matrix_of(game, {{2, 0, 0}, {0, 1, 1}});
  const std::vector<ChannelId> perm = {2, 0, 1};
  const StrategyMatrix permuted = permute_channels(matrix, perm);
  EXPECT_EQ(permuted.at(0, 1), 2);
  EXPECT_EQ(permuted.at(1, 0), 1);
  EXPECT_EQ(permuted.at(1, 2), 1);
}

TEST(Symmetry, RejectsNonPermutations) {
  const GameModel game = constant_game(2, 2, 1);
  const auto matrix = matrix_of(game, {{1, 0}, {0, 1}});
  const std::vector<UserId> repeated = {0, 0};
  EXPECT_THROW(permute_users(matrix, repeated), std::invalid_argument);
  const std::vector<UserId> short_perm = {0};
  EXPECT_THROW(permute_users(matrix, short_perm), std::invalid_argument);
  const std::vector<ChannelId> out_of_range = {0, 5};
  EXPECT_THROW(permute_channels(matrix, out_of_range), std::invalid_argument);
}

TEST(Symmetry, CanonicalKeyInvariantUnderAnyPermutation) {
  const GameModel game = constant_game(3, 3, 2);
  Rng rng(2718);
  for (int trial = 0; trial < 50; ++trial) {
    const StrategyMatrix matrix = random_full_allocation(game, rng);
    const std::string reference = canonical_key(matrix);

    std::vector<UserId> users = {0, 1, 2};
    std::vector<ChannelId> channels = {0, 1, 2};
    rng.shuffle(users);
    rng.shuffle(channels);
    const StrategyMatrix scrambled =
        permute_channels(permute_users(matrix, users), channels);
    ASSERT_EQ(canonical_key(scrambled), reference) << matrix.key();
  }
}

TEST(Symmetry, CanonicalKeyDistinguishesDifferentStructures) {
  const GameModel game = constant_game(2, 2, 2);
  const auto stacked = matrix_of(game, {{2, 0}, {0, 2}});
  const auto spread = matrix_of(game, {{1, 1}, {1, 1}});
  EXPECT_NE(canonical_key(stacked), canonical_key(spread));
}

TEST(Symmetry, UsersOnlyKeySortsRows) {
  const GameModel game = constant_game(2, 2, 2);
  const auto a = matrix_of(game, {{2, 0}, {0, 2}});
  const auto b = matrix_of(game, {{0, 2}, {2, 0}});
  EXPECT_EQ(canonical_key_users(a), canonical_key_users(b));
  // But column differences survive the users-only key.
  EXPECT_EQ(canonical_key_users(a), "0,2|2,0");
}

TEST(Symmetry, UtilityProfileInvariantUnderUserPermutation) {
  const GameModel game = constant_game(4, 3, 2);
  Rng rng(999);
  for (int trial = 0; trial < 30; ++trial) {
    const StrategyMatrix matrix = random_full_allocation(game, rng);
    std::vector<UserId> perm = {0, 1, 2, 3};
    rng.shuffle(perm);
    const StrategyMatrix permuted = permute_users(matrix, perm);
    for (UserId i = 0; i < 4; ++i) {
      ASSERT_NEAR(game.utility(permuted, i), game.utility(matrix, perm[i]),
                  1e-12);
    }
  }
}

TEST(Symmetry, NashInvariantUnderPermutations) {
  const GameModel game = constant_game(3, 3, 2);
  Rng rng(313);
  int checked_ne = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const StrategyMatrix matrix = random_spread_allocation(game, rng);
    const bool nash = is_nash_equilibrium(game, matrix);
    std::vector<ChannelId> perm = {0, 1, 2};
    rng.shuffle(perm);
    const StrategyMatrix permuted = permute_channels(matrix, perm);
    ASSERT_EQ(is_nash_equilibrium(game, permuted), nash);
    if (nash) ++checked_ne;
  }
  EXPECT_GT(checked_ne, 0);
}

TEST(Symmetry, ClassSizesPartitionTheInput) {
  // The 36 raw equilibria of N=4, k=2, C=3 collapse into few classes whose
  // sizes sum back to 36; NE-ness is class-invariant by the test above.
  const GameModel game = constant_game(4, 3, 2);
  const auto equilibria = enumerate_nash_equilibria(game);
  ASSERT_EQ(equilibria.size(), 36u);
  const auto sizes = symmetry_class_sizes(equilibria);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 36u);
  EXPECT_LT(sizes.size(), 36u);
  EXPECT_EQ(count_symmetry_classes(equilibria), sizes.size());
}

TEST(Symmetry, SingleMatrixIsOneClass) {
  const GameModel game = constant_game(2, 2, 1);
  const auto matrix = matrix_of(game, {{1, 0}, {0, 1}});
  EXPECT_EQ(count_symmetry_classes({matrix}), 1u);
  EXPECT_EQ(count_symmetry_classes({}), 0u);
}

}  // namespace
}  // namespace mrca
