#include "core/io.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::matrix_of;

TEST(ParseMatrix, RoundTripsCanonicalKey) {
  const GameModel game = constant_game(3, 4, 2);
  const auto original = matrix_of(
      game, {{1, 1, 0, 0}, {0, 2, 0, 0}, {0, 0, 1, 1}});
  const StrategyMatrix parsed =
      parse_matrix(game.config(), original.key());
  EXPECT_TRUE(parsed == original);
}

TEST(ParseMatrix, AcceptsWhitespace) {
  const GameConfig config(2, 3, 2);
  const StrategyMatrix parsed = parse_matrix(config, " 1 , 1 , 0 | 0 , 1 , 1 ");
  EXPECT_EQ(parsed.at(0, 0), 1);
  EXPECT_EQ(parsed.at(1, 2), 1);
}

TEST(ParseMatrix, RejectsMalformedInput) {
  const GameConfig config(2, 3, 2);
  EXPECT_THROW(parse_matrix(config, "1,1|0,1,1"), std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "1,1,0"), std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "1,x,0|0,1,1"), std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "1,1,0|0,1,"), std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "1,1,1|0,0,0"), std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "1,2junk,0|0,0,0"),
               std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "-1,1,0|0,0,0"), std::invalid_argument);
  // An empty field is an error, trailing separators included.
  EXPECT_THROW(parse_matrix(config, "1,1,0,|0,1,1"), std::invalid_argument);
  EXPECT_THROW(parse_matrix(config, "1,1,0|0,1,1|"), std::invalid_argument);
  // Past RadioCount's range: rejected, not wrapped.
  EXPECT_THROW(parse_matrix(config, "99999999999,0,0|0,0,0"),
               std::invalid_argument);
}

TEST(ParseMatrix, FigureOneExampleParses) {
  const GameConfig config(4, 5, 4);
  const StrategyMatrix parsed = parse_matrix(
      config, "1,1,1,1,0|1,0,0,1,1|1,2,0,1,0|1,0,1,0,0");
  EXPECT_EQ(parsed.channel_load(0), 4);
  EXPECT_EQ(parsed.channel_load(4), 1);
  EXPECT_EQ(parsed.user_total(2), 4);
}

TEST(RenderMatrix, ContainsEveryCell) {
  const GameModel game = constant_game(2, 2, 2);
  const auto matrix = matrix_of(game, {{2, 0}, {1, 1}});
  const std::string rendered = render_matrix(matrix);
  EXPECT_NE(rendered.find('2'), std::string::npos);
  EXPECT_NE(rendered.find("u1"), std::string::npos);
  EXPECT_NE(rendered.find("c2"), std::string::npos);
}

TEST(RenderOccupancy, StackHeightMatchesLoad) {
  const GameModel game = constant_game(2, 2, 2);
  const auto matrix = matrix_of(game, {{2, 0}, {1, 0}});
  const std::string rendered = render_occupancy(matrix);
  // Channel 1 has 3 stacked radios; count bracket pairs.
  std::size_t brackets = 0;
  for (const char ch : rendered) {
    if (ch == '[') ++brackets;
  }
  EXPECT_EQ(brackets, 3u);
}

TEST(RenderUtilities, IncludesWelfareLine) {
  const GameModel game = constant_game(2, 2, 1);
  const auto matrix = matrix_of(game, {{1, 0}, {0, 1}});
  const std::string rendered = render_utilities(game, matrix);
  EXPECT_NE(rendered.find("welfare"), std::string::npos);
  EXPECT_NE(rendered.find("U(u1)"), std::string::npos);
}

}  // namespace
}  // namespace mrca
