#include "core/strategy.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/types.h"
#include "test_util.h"

namespace mrca {
namespace {

GameConfig small_config() { return GameConfig(3, 4, 2); }

TEST(GameConfig, ValidatesArguments) {
  EXPECT_THROW(GameConfig(0, 3, 1), std::invalid_argument);
  EXPECT_THROW(GameConfig(2, 0, 1), std::invalid_argument);
  EXPECT_THROW(GameConfig(2, 3, 0), std::invalid_argument);
  EXPECT_THROW(GameConfig(2, 3, 4), std::invalid_argument);  // k > |C|
  EXPECT_NO_THROW(GameConfig(2, 3, 3));
  // |N| * k must fit in RadioCount (10^6 x 3000 used to wrap in int).
  EXPECT_THROW(GameConfig(1000000, 3000, 3000), std::invalid_argument);
  EXPECT_THROW(GameConfig(std::numeric_limits<std::size_t>::max(), 2, 2),
               std::invalid_argument);
  const auto limit =
      static_cast<std::size_t>(std::numeric_limits<RadioCount>::max());
  EXPECT_EQ(GameConfig(limit, 1, 1).total_radios(),
            std::numeric_limits<RadioCount>::max());
  EXPECT_THROW(GameConfig(limit + 1, 1, 1), std::invalid_argument);
}

TEST(GameConfig, TotalsAndConflict) {
  GameConfig config(4, 6, 2);
  EXPECT_EQ(config.total_radios(), 8);
  EXPECT_TRUE(config.has_conflict());  // 8 > 6
  GameConfig no_conflict(2, 6, 2);
  EXPECT_FALSE(no_conflict.has_conflict());  // 4 <= 6
  GameConfig boundary(3, 6, 2);
  EXPECT_FALSE(boundary.has_conflict());  // 6 <= 6 (Fact 1 regime)
}

TEST(StrategyMatrix, StartsEmpty) {
  StrategyMatrix matrix(small_config());
  EXPECT_EQ(matrix.total_deployed(), 0);
  for (UserId i = 0; i < 3; ++i) {
    EXPECT_EQ(matrix.user_total(i), 0);
    EXPECT_EQ(matrix.spare_radios(i), 2);
  }
  for (ChannelId c = 0; c < 4; ++c) {
    EXPECT_EQ(matrix.channel_load(c), 0);
  }
}

TEST(StrategyMatrix, AddRemoveMaintainsInvariants) {
  StrategyMatrix matrix(small_config());
  matrix.add_radio(0, 1);
  matrix.add_radio(0, 1);
  EXPECT_EQ(matrix.at(0, 1), 2);
  EXPECT_EQ(matrix.channel_load(1), 2);
  EXPECT_EQ(matrix.user_total(0), 2);
  EXPECT_EQ(matrix.spare_radios(0), 0);
  EXPECT_THROW(matrix.add_radio(0, 2), std::logic_error);  // budget exhausted

  matrix.remove_radio(0, 1);
  EXPECT_EQ(matrix.at(0, 1), 1);
  EXPECT_EQ(matrix.channel_load(1), 1);
  EXPECT_THROW(matrix.remove_radio(0, 3), std::logic_error);  // none there
}

TEST(StrategyMatrix, MoveRadio) {
  StrategyMatrix matrix(small_config());
  matrix.add_radio(1, 0);
  matrix.move_radio(1, 0, 3);
  EXPECT_EQ(matrix.at(1, 0), 0);
  EXPECT_EQ(matrix.at(1, 3), 1);
  EXPECT_EQ(matrix.channel_load(0), 0);
  EXPECT_EQ(matrix.channel_load(3), 1);
  EXPECT_EQ(matrix.user_total(1), 1);
  // Self-move is a no-op.
  matrix.move_radio(1, 3, 3);
  EXPECT_EQ(matrix.at(1, 3), 1);
  // Moving a radio that is not there throws.
  EXPECT_THROW(matrix.move_radio(1, 0, 2), std::logic_error);
}

TEST(StrategyMatrix, ApplyRadioMove) {
  StrategyMatrix matrix(small_config());
  matrix.add_radio(2, 2);
  matrix.apply(RadioMove{2, 2, 0});
  EXPECT_EQ(matrix.at(2, 0), 1);
  EXPECT_EQ(matrix.at(2, 2), 0);
}

TEST(StrategyMatrix, FromRowsValidates) {
  const GameConfig config = small_config();
  EXPECT_THROW(StrategyMatrix::from_rows(config, {{1, 0, 0, 0}}),
               std::invalid_argument);  // wrong row count
  EXPECT_THROW(
      StrategyMatrix::from_rows(config, {{1, 0, 0}, {0, 0, 0}, {0, 0, 0}}),
      std::invalid_argument);  // wrong width
  EXPECT_THROW(StrategyMatrix::from_rows(
                   config, {{3, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}),
               std::invalid_argument);  // over budget
  EXPECT_THROW(StrategyMatrix::from_rows(
                   config, {{-1, 1, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}),
               std::invalid_argument);  // negative
  const auto ok = StrategyMatrix::from_rows(
      config, {{1, 1, 0, 0}, {0, 2, 0, 0}, {0, 0, 0, 1}});
  EXPECT_EQ(ok.channel_load(1), 3);
  EXPECT_EQ(ok.total_deployed(), 5);
}

TEST(StrategyMatrix, SetRowUpdatesLoads) {
  StrategyMatrix matrix(small_config());
  matrix.add_radio(0, 0);
  matrix.add_radio(0, 1);
  const std::vector<RadioCount> new_row = {0, 0, 2, 0};
  matrix.set_row(0, new_row);
  EXPECT_EQ(matrix.channel_load(0), 0);
  EXPECT_EQ(matrix.channel_load(1), 0);
  EXPECT_EQ(matrix.channel_load(2), 2);
  EXPECT_EQ(matrix.user_total(0), 2);
}

TEST(StrategyMatrix, MinMaxLoadsAndSets) {
  const auto matrix = StrategyMatrix::from_rows(
      small_config(), {{1, 1, 0, 0}, {1, 1, 0, 0}, {1, 0, 1, 0}});
  EXPECT_EQ(matrix.max_load(), 3);
  EXPECT_EQ(matrix.min_load(), 0);
  EXPECT_EQ(matrix.max_loaded_channels(), std::vector<ChannelId>{0});
  EXPECT_EQ(matrix.min_loaded_channels(), std::vector<ChannelId>{3});
  EXPECT_EQ(matrix.load_difference(0, 3), 3);
  EXPECT_EQ(matrix.load_difference(3, 0), -3);
}

TEST(StrategyMatrix, DeploymentAndOccupancyPredicates) {
  auto matrix = StrategyMatrix::from_rows(
      small_config(), {{1, 1, 0, 0}, {0, 1, 1, 0}, {1, 0, 0, 1}});
  EXPECT_TRUE(matrix.all_radios_deployed());
  EXPECT_TRUE(matrix.all_channels_occupied());
  matrix.remove_radio(0, 0);
  EXPECT_FALSE(matrix.all_radios_deployed());
  matrix.remove_radio(2, 0);
  EXPECT_FALSE(matrix.all_channels_occupied());
}

TEST(StrategyMatrix, RowViewReflectsState) {
  StrategyMatrix matrix(small_config());
  matrix.add_radio(1, 2);
  const auto row = matrix.row(1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[2], 1);
  EXPECT_EQ(row[0], 0);
}

TEST(StrategyMatrix, KeyIsCanonical) {
  const auto a = StrategyMatrix::from_rows(
      small_config(), {{1, 1, 0, 0}, {0, 1, 1, 0}, {1, 0, 0, 1}});
  EXPECT_EQ(a.key(), "1,1,0,0|0,1,1,0|1,0,0,1");
}

TEST(StrategyMatrix, EqualityComparesCells) {
  const auto a =
      StrategyMatrix::from_rows(small_config(), {{1, 0, 0, 0}, {0, 0, 0, 0},
                                                 {0, 0, 0, 0}});
  auto b = StrategyMatrix(small_config());
  EXPECT_FALSE(a == b);
  b.add_radio(0, 0);
  EXPECT_TRUE(a == b);
}

TEST(StrategyMatrix, BoundsChecking) {
  for (const auto storage : {StrategyMatrix::Storage::kDense,
                             StrategyMatrix::Storage::kSparse}) {
    StrategyMatrix matrix(small_config(), storage);
    matrix.add_radio(2, 3);
    EXPECT_EQ(matrix.at(2, 3), 1);
    EXPECT_THROW(matrix.at(3, 0), std::out_of_range);
    EXPECT_THROW(matrix.at(0, 4), std::out_of_range);
    EXPECT_THROW(matrix.at(3, 4), std::out_of_range);
    EXPECT_THROW(matrix.channel_load(4), std::out_of_range);
    EXPECT_THROW(matrix.user_total(3), std::out_of_range);
    EXPECT_THROW(matrix.add_radio(3, 0), std::out_of_range);
    EXPECT_THROW(matrix.add_radio(0, 7), std::out_of_range);
  }
}

/// Property: after any random sequence of valid mutations the cached loads
/// and totals match a from-scratch recomputation.
TEST(StrategyMatrixProperty, CachedAggregatesStayConsistent) {
  const GameConfig config(5, 6, 4);
  StrategyMatrix matrix(config);
  Rng rng(2024);
  for (int step = 0; step < 5000; ++step) {
    const UserId user = rng.index(config.num_users);
    const ChannelId channel = rng.index(config.num_channels);
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    try {
      if (action == 0) {
        matrix.add_radio(user, channel);
      } else if (action == 1) {
        matrix.remove_radio(user, channel);
      } else {
        const ChannelId to = rng.index(config.num_channels);
        matrix.move_radio(user, channel, to);
      }
    } catch (const std::logic_error&) {
      // Invalid mutation rejected; state must be unchanged — verified below.
    }
    // Recompute from scratch and compare.
    RadioCount total = 0;
    for (ChannelId c = 0; c < config.num_channels; ++c) {
      RadioCount load = 0;
      for (UserId i = 0; i < config.num_users; ++i) load += matrix.at(i, c);
      ASSERT_EQ(load, matrix.channel_load(c)) << "step " << step;
      total += load;
    }
    for (UserId i = 0; i < config.num_users; ++i) {
      RadioCount row_total = 0;
      for (ChannelId c = 0; c < config.num_channels; ++c) {
        row_total += matrix.at(i, c);
      }
      ASSERT_EQ(row_total, matrix.user_total(i)) << "step " << step;
      ASSERT_LE(row_total, config.radios_per_user);
    }
    ASSERT_EQ(total, matrix.total_deployed());
  }
}

// --- Sparse row storage ----------------------------------------------------
// The slot representation must be observationally identical to the dense
// grid through every mutator — it is what lets a 10^6-user matrix fit in
// memory, and the dynamics never know which one they are driving.

TEST(StrategyMatrixSparse, AutoStorageSelectsSparseOnlyForLargeSparseCells) {
  using Storage = StrategyMatrix::Storage;
  // Small grids stay dense regardless of shape.
  EXPECT_EQ(StrategyMatrix::auto_storage(GameConfig(3, 12, 2)),
            Storage::kDense);
  // Large AND channel-rich: slots beat cells.
  EXPECT_EQ(
      StrategyMatrix::auto_storage(GameConfig(std::size_t{1} << 18, 16, 4)),
      Storage::kSparse);
  // Large but dense-ish rows (|C| <= 2k): the grid is already compact.
  EXPECT_EQ(
      StrategyMatrix::auto_storage(GameConfig(std::size_t{1} << 18, 8, 4)),
      Storage::kDense);
  EXPECT_EQ(StrategyMatrix(GameConfig(3, 12, 2)).storage(), Storage::kDense);
}

TEST(StrategyMatrixSparse, MutatorsMatchDenseStorageExactly) {
  const GameConfig config(6, 9, 3);
  StrategyMatrix dense(config, StrategyMatrix::Storage::kDense);
  StrategyMatrix sparse(config, StrategyMatrix::Storage::kSparse);
  ASSERT_EQ(sparse.storage(), StrategyMatrix::Storage::kSparse);
  Rng rng(321);
  for (int step = 0; step < 4000; ++step) {
    const auto user = static_cast<UserId>(rng.index(config.num_users));
    const auto channel = static_cast<ChannelId>(rng.index(config.num_channels));
    if (dense.spare_radios(user) > 0 && rng.index(2) == 0) {
      dense.add_radio(user, channel);
      sparse.add_radio(user, channel);
    } else if (dense.at(user, channel) > 0) {
      const auto to = static_cast<ChannelId>(rng.index(config.num_channels));
      if (rng.index(2) == 0) {
        dense.remove_radio(user, channel);
        sparse.remove_radio(user, channel);
      } else if (to != channel) {
        dense.move_radio(user, channel, to);
        sparse.move_radio(user, channel, to);
      }
    }
    ASSERT_TRUE(dense == sparse) << "step " << step;
  }
  EXPECT_EQ(dense.key(), sparse.key());
  for (UserId user = 0; user < config.num_users; ++user) {
    for (ChannelId c = 0; c < config.num_channels; ++c) {
      ASSERT_EQ(dense.at(user, c), sparse.at(user, c));
    }
    ASSERT_EQ(dense.user_total(user), sparse.user_total(user));
  }
  for (ChannelId c = 0; c < config.num_channels; ++c) {
    ASSERT_EQ(dense.channel_load(c), sparse.channel_load(c));
  }
}

TEST(StrategyMatrixSparse, SetRowAndCopyRowRoundTrip) {
  const GameConfig config(3, 6, 4);
  StrategyMatrix sparse(config, StrategyMatrix::Storage::kSparse);
  const std::vector<RadioCount> row = {0, 2, 0, 1, 0, 1};
  sparse.set_row(1, row);
  std::vector<RadioCount> out(config.num_channels, -1);
  sparse.copy_row(1, out);
  EXPECT_EQ(out, row);
  // Replacing a row wholesale retires the old slots.
  const std::vector<RadioCount> replacement = {4, 0, 0, 0, 0, 0};
  sparse.set_row(1, replacement);
  sparse.copy_row(1, out);
  EXPECT_EQ(out, replacement);
  EXPECT_EQ(sparse.user_total(1), 4);
  EXPECT_EQ(sparse.channel_load(1), 0);
  EXPECT_EQ(sparse.channel_load(0), 4);
}

TEST(StrategyMatrixSparse, ForEachRowEntryWalksAscendingOccupiedChannels) {
  const GameConfig config(2, 8, 4);
  StrategyMatrix sparse(config, StrategyMatrix::Storage::kSparse);
  sparse.add_radio(0, 6);
  sparse.add_radio(0, 1);
  sparse.add_radio(0, 6);
  sparse.add_radio(0, 3);
  std::vector<std::pair<ChannelId, RadioCount>> seen;
  sparse.for_each_row_entry(0, [&](ChannelId c, RadioCount count) {
    seen.emplace_back(c, count);
  });
  const std::vector<std::pair<ChannelId, RadioCount>> expected = {
      {1, 1}, {3, 1}, {6, 2}};
  EXPECT_EQ(seen, expected);
}

TEST(StrategyMatrixSparse, RowViewIsDenseOnly) {
  const GameConfig config(2, 6, 2);
  StrategyMatrix dense(config, StrategyMatrix::Storage::kDense);
  EXPECT_NO_THROW(dense.row(0));
  StrategyMatrix sparse(config, StrategyMatrix::Storage::kSparse);
  EXPECT_THROW(sparse.row(0), std::logic_error);
}

}  // namespace
}  // namespace mrca
