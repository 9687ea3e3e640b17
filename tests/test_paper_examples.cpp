// The paper's worked examples, reproduced exactly:
//   Figure 1/2 — a non-equilibrium allocation and the lemma violations the
//                text walks through,
//   Figure 4   — a NE with an "exception" user (N=7, k=4, C=6),
//   Figure 5   — a NE with no exception (N=4, k=4, C=6).
#include <gtest/gtest.h>

#include "core/analysis/lemmas.h"
#include "core/analysis/nash.h"
#include "core/analysis/pareto.h"
#include "core/io.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;
using testing::power_law_game;

/// Figure 4: loads (5,5,5,5,4,4); u1 covers both min-loaded channels with
/// two radios each (the exception user); u2..u7 spread one radio per
/// channel.
std::vector<std::vector<RadioCount>> figure4_rows() {
  return {{0, 0, 0, 0, 2, 2},   // u1: the exception user
          {1, 1, 1, 1, 0, 0},   // u2
          {1, 1, 1, 1, 0, 0},   // u3
          {1, 1, 1, 1, 0, 0},   // u4
          {1, 1, 0, 0, 1, 1},   // u5
          {0, 0, 1, 1, 1, 1},   // u6
          {1, 1, 1, 1, 0, 0}};  // u7
}

/// Figure 5: loads (3,3,3,3,2,2); every user spreads (no exception).
std::vector<std::vector<RadioCount>> figure5_rows() {
  return {{1, 1, 1, 1, 0, 0},
          {1, 1, 1, 1, 0, 0},
          {1, 1, 0, 0, 1, 1},
          {0, 0, 1, 1, 1, 1}};
}

TEST(Figure1, IsNotANashAndEveryStatedLemmaFires) {
  const GameModel game = constant_game(4, 5, 4);
  const auto matrix = matrix_of(game, figure1_rows());

  // Set structure quoted in the text: Cmax={c1}, Cmin={c5}, Crem=rest.
  EXPECT_EQ(matrix.max_loaded_channels(), std::vector<ChannelId>{0});
  EXPECT_EQ(matrix.min_loaded_channels(), std::vector<ChannelId>{4});

  EXPECT_FALSE(lemma1_violations(matrix).empty());
  EXPECT_FALSE(lemma2_violations(matrix).empty());
  EXPECT_FALSE(lemma3_violations(matrix).empty());
  EXPECT_FALSE(is_nash_equilibrium(game, matrix));
}

TEST(Figure1, RenderersProduceTheExample) {
  const GameModel game = constant_game(4, 5, 4);
  const auto matrix = matrix_of(game, figure1_rows());
  const std::string rendered = render_matrix(matrix);
  // Row u3 of Figure 2: "1 2 0 1 0".
  EXPECT_NE(rendered.find("u3"), std::string::npos);
  const std::string occupancy = render_occupancy(matrix);
  EXPECT_NE(occupancy.find("[u2"), std::string::npos);
  const std::string loads = render_loads(matrix);
  EXPECT_NE(loads.find("[4, 3, 2, 3, 1]"), std::string::npos);
  EXPECT_NE(loads.find("delta = 3"), std::string::npos);
}

TEST(Figure4, LoadsMatchThePaper) {
  const GameModel game = constant_game(7, 6, 4);
  const auto matrix = matrix_of(game, figure4_rows());
  EXPECT_TRUE(matrix.all_radios_deployed());
  const auto loads = matrix.channel_loads();
  EXPECT_EQ(std::vector<RadioCount>(loads.begin(), loads.end()),
            (std::vector<RadioCount>{5, 5, 5, 5, 4, 4}));
}

TEST(Figure4, IsANashEquilibriumUnderConstantRate) {
  const GameModel game = constant_game(7, 6, 4);
  const auto matrix = matrix_of(game, figure4_rows());
  EXPECT_TRUE(is_single_move_stable(game, matrix));
  EXPECT_TRUE(is_nash_equilibrium(game, matrix));
}

TEST(Figure4, SatisfiesTheorem1WithExceptionClause) {
  const GameModel game = constant_game(7, 6, 4);
  const auto matrix = matrix_of(game, figure4_rows());
  const Theorem1Result result = check_theorem1(matrix);
  EXPECT_TRUE(result.predicts_nash()) << [&] {
    std::string all;
    for (const auto& v : result.violations) all += v.condition + "; ";
    return all;
  }();
  // u1 really is an exception user: it covers every min-loaded channel and
  // stacks two radios there.
  for (const ChannelId c : matrix.min_loaded_channels()) {
    EXPECT_EQ(matrix.at(0, c), 2);
  }
}

TEST(Figure4, ExceptionNeutralityIsExactlyTheM4Boundary) {
  // u1 moving one of its two radios from a min channel (load 4) to a max
  // channel (load 5) is exactly utility-neutral under constant R — the
  // m = 4 boundary case of the reproduction audit (README "Reproduction
  // findings").
  const GameModel game = constant_game(7, 6, 4);
  const auto matrix = matrix_of(game, figure4_rows());
  EXPECT_NEAR(move_benefit(game, matrix, {0, 4, 0}), 0.0, 1e-12);
}

TEST(Figure4, WelfareIsSystemOptimal) {
  const GameModel game = constant_game(7, 6, 4);
  const auto matrix = matrix_of(game, figure4_rows());
  EXPECT_NEAR(game.welfare(matrix), game.optimal_welfare(), 1e-12);
  EXPECT_TRUE(welfare_certifies_pareto(game, matrix));
}

TEST(Figure5, IsANashEquilibriumForConstantAndDecreasingRate) {
  // All users spread: Theorem 1's sufficiency holds for ANY non-increasing
  // R here, so Figure 5 must be a NE under every rate family.
  const auto rows = figure5_rows();
  for (const GameModel& game :
       {constant_game(4, 6, 4), power_law_game(4, 6, 4, 1.0),
        power_law_game(4, 6, 4, 2.0)}) {
    const auto matrix = matrix_of(game, rows);
    EXPECT_TRUE(is_nash_equilibrium(game, matrix))
        << game.rate_function(0).name();
  }
}

TEST(Figure5, NoUserNeedsTheExceptionClause) {
  const GameModel game = constant_game(4, 6, 4);
  const auto matrix = matrix_of(game, figure5_rows());
  for (UserId i = 0; i < 4; ++i) {
    for (ChannelId c = 0; c < 6; ++c) {
      EXPECT_LE(matrix.at(i, c), 1);
    }
  }
  EXPECT_TRUE(check_theorem1(matrix).predicts_nash());
}

TEST(Figure5, LoadsMatchThePaper) {
  const GameModel game = constant_game(4, 6, 4);
  const auto matrix = matrix_of(game, figure5_rows());
  const auto loads = matrix.channel_loads();
  EXPECT_EQ(std::vector<RadioCount>(loads.begin(), loads.end()),
            (std::vector<RadioCount>{3, 3, 3, 3, 2, 2}));
}

TEST(Figure4Variant, DecreasingRateBreaksTheExceptionEquilibrium) {
  // Reproduction audit: under strictly decreasing R the same Figure 4
  // allocation is NOT an equilibrium — the exception user's neutral move
  // becomes strictly profitable (R(3)/3 + R(6)/6 > R(4)/2 for R = 1/k).
  const GameModel game = power_law_game(7, 6, 4, 1.0);
  const auto matrix = matrix_of(game, figure4_rows());
  EXPECT_GT(move_benefit(game, matrix, {0, 4, 0}), 0.0);
  EXPECT_FALSE(is_nash_equilibrium(game, matrix));
}

}  // namespace
}  // namespace mrca
