// Exhaustive audit of Theorem 1 against ground truth (the best-response
// oracle) over every full-deployment strategy matrix of small games.
//
// Findings encoded here (stated in README "Reproduction findings"; the
// smallest counterexample is pinned by experiments/theorem1_gap):
//   - NECESSITY holds: every true Nash equilibrium satisfies the printed
//     conditions (the lemmas' proofs are constructive and sound).
//   - SUFFICIENCY has a gap: the printed exception clause admits matrices
//     in which a user stacks two radios on a min-loaded channel it
//     monopolizes; for min-loads m < 4 the min->max move is strictly
//     profitable under constant R (benefit R*(4-m)/(m(m-1)(m+2))).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/analysis/lemmas.h"
#include "core/analysis/nash.h"
#include "test_util.h"

namespace mrca {
namespace {

struct AuditCounts {
  std::size_t matrices = 0;
  std::size_t nash = 0;
  std::size_t theorem_accepts = 0;
  std::size_t false_accepts = 0;   // theorem says NE, oracle says no
  std::size_t false_rejects = 0;   // oracle says NE, theorem says no
};

AuditCounts audit(const GameModel& game) {
  AuditCounts counts;
  for_each_strategy_matrix(
      game,
      [&](const StrategyMatrix& matrix) {
        ++counts.matrices;
        const bool oracle = game.is_nash_equilibrium(matrix);
        const bool predicted = check_theorem1(matrix).predicts_nash();
        if (oracle) ++counts.nash;
        if (predicted) ++counts.theorem_accepts;
        if (predicted && !oracle) {
          ++counts.false_accepts;
          // Every false accept must match the documented gap: some user
          // covering all min channels with >= 2 radios on one of them.
          bool documented_pattern = false;
          const auto min_channels = matrix.min_loaded_channels();
          for (UserId i = 0; i < matrix.num_users(); ++i) {
            bool covers = true;
            bool stacked = false;
            for (const ChannelId c : min_channels) {
              if (matrix.at(i, c) == 0) covers = false;
              if (matrix.at(i, c) >= 2) stacked = true;
            }
            if (covers && stacked) documented_pattern = true;
          }
          EXPECT_TRUE(documented_pattern)
              << "undocumented divergence at " << matrix.key();
        }
        if (oracle && !predicted) {
          ++counts.false_rejects;
          ADD_FAILURE() << "necessity violated at " << matrix.key();
        }
        return true;
      },
      /*full_deployment_only=*/true);
  return counts;
}

using AuditGame = std::tuple<std::size_t, std::size_t, RadioCount>;

// (users, channels, radios) of every audited game.
const AuditGame kAuditGames[] = {
    {3, 2, 2},  // loads (3,3)
    {4, 3, 2},  // the README example
    {3, 3, 2},  // loads (2,2,2)
    {5, 3, 1},  // singleton users
    {2, 3, 3},  // heavy stacking space
    {4, 4, 2},
    {3, 4, 3},
};

class TheoremAuditConstant : public ::testing::TestWithParam<AuditGame> {};

TEST_P(TheoremAuditConstant, NecessityExactSufficiencyDocumented) {
  const auto& [users, channels, radios] = GetParam();
  const GameModel game = mrca::testing::constant_game(users, channels, radios);
  if (!game.config().has_conflict()) GTEST_SKIP() << "Fact 1 regime";
  const AuditCounts counts = audit(game);
  ASSERT_GT(counts.matrices, 0u);
  EXPECT_EQ(counts.false_rejects, 0u);
  // Theorem-predicted equilibria must exist (the characterization is not
  // vacuous at these sizes).
  EXPECT_GT(counts.theorem_accepts, 0u);
  EXPECT_GT(counts.nash, 0u);
  ::testing::Test::RecordProperty("matrices",
                                  static_cast<int>(counts.matrices));
  ::testing::Test::RecordProperty("false_accepts",
                                  static_cast<int>(counts.false_accepts));
}

INSTANTIATE_TEST_SUITE_P(SmallGames, TheoremAuditConstant,
                         ::testing::ValuesIn(kAuditGames));

TEST(TheoremAudit, DocumentedCounterexampleIsAFalseAccept) {
  const GameModel game = mrca::testing::constant_game(4, 3, 2);
  const AuditCounts counts = audit(game);
  // The N=4,k=2,C=3 instance contains the user-(2,0,0) family: the printed
  // theorem must over-accept at least once there.
  EXPECT_GT(counts.false_accepts, 0u);
}

TEST(TheoremAudit, DecreasingRateNecessityStillHolds) {
  // The lemmas only use non-increasing monotonicity, so necessity must
  // survive a strictly decreasing rate function too.
  for (const auto& [users, channels, radios] : kAuditGames) {
    const GameModel game =
        mrca::testing::power_law_game(users, channels, radios, 1.0);
    std::size_t nash_seen = 0;
    for_each_strategy_matrix(
        game,
        [&](const StrategyMatrix& matrix) {
          if (game.is_nash_equilibrium(matrix)) {
            ++nash_seen;
            EXPECT_TRUE(check_theorem1(matrix).predicts_nash())
                << game.config().describe() << " " << matrix.key();
          }
          return true;
        },
        /*full_deployment_only=*/true);
    EXPECT_GT(nash_seen, 0u) << game.config().describe();
  }
}

TEST(TheoremAudit, SpreadMatricesAreAlwaysTrueAccepts) {
  // The no-exception case of Theorem 1 (every k_{i,c} <= 1, loads balanced)
  // is sufficient for ANY non-increasing R: verify across families on all
  // spread matrices of a small game.
  for (const GameModel& game :
       {mrca::testing::constant_game(4, 3, 2),
        mrca::testing::power_law_game(4, 3, 2, 1.0),
        mrca::testing::power_law_game(4, 3, 2, 2.0)}) {
    for_each_strategy_matrix(
        game,
        [&](const StrategyMatrix& matrix) {
          if (matrix.max_load() - matrix.min_load() > 1) return true;
          bool spread = true;
          for (UserId i = 0; i < matrix.num_users() && spread; ++i) {
            for (ChannelId c = 0; c < matrix.num_channels(); ++c) {
              if (matrix.at(i, c) > 1) {
                spread = false;
                break;
              }
            }
          }
          if (!spread) return true;
          EXPECT_TRUE(game.is_nash_equilibrium(matrix))
              << game.rate_function(0).name() << " " << matrix.key();
          return true;
        },
        /*full_deployment_only=*/true);
  }
}

}  // namespace
}  // namespace mrca
