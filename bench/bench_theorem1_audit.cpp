// E5 — Theorem 1 audit: exhaustive agreement matrix between
//   (a) the printed Theorem 1 characterization,
//   (b) exact single-move stability,
//   (c) full Nash stability (best-response oracle),
// over EVERY full-deployment strategy matrix of a family of small games,
// plus the closed-form boundary analysis of the exception clause.
//
// Reproduction finding (README "Reproduction findings"): necessity is exact;
// sufficiency has a documented gap when an exception user stacks >= 2
// radios on a min-loaded channel of load m < 4 (constant R).
#include <iostream>

#include "core/analysis/symmetry.h"
#include "mrca.h"

namespace {

using namespace mrca;

struct AuditRow {
  std::string config;
  std::string rate;
  std::size_t matrices = 0;
  std::size_t nash = 0;
  std::size_t theorem = 0;
  std::size_t false_accept = 0;
  std::size_t false_reject = 0;
  std::size_t stable_not_nash = 0;
};

AuditRow audit(const GameModel& game) {
  AuditRow row;
  row.config = game.config().describe();
  row.rate = game.rate_function(0).name();
  for_each_strategy_matrix(
      game.config(),
      [&](const StrategyMatrix& matrix) {
        ++row.matrices;
        const bool nash = is_nash_equilibrium(game, matrix);
        const bool stable = is_single_move_stable(game, matrix);
        const bool predicted = check_theorem1(matrix).predicts_nash();
        if (nash) ++row.nash;
        if (predicted) ++row.theorem;
        if (predicted && !nash) ++row.false_accept;
        if (nash && !predicted) ++row.false_reject;
        if (stable && !nash) ++row.stable_not_nash;
        return true;
      },
      /*full_deployment_only=*/true);
  return row;
}

}  // namespace

int main() {
  std::cout << "==============================================================\n"
            << " E5: Theorem 1 audit — printed predicate vs exact oracle\n"
            << "==============================================================\n\n";

  Table table({"game", "rate", "matrices", "NE (oracle)", "Thm-1 accepts",
               "false accepts", "false rejects", "stable-not-NE"});
  const auto constant = std::make_shared<ConstantRate>(1.0);
  const auto harmonic = std::make_shared<PowerLawRate>(1.0, 1.0);

  for (const auto& rate :
       std::vector<std::shared_ptr<const RateFunction>>{constant, harmonic}) {
    for (const auto& [n, c, k] :
         {std::tuple<std::size_t, std::size_t, RadioCount>{3, 2, 2},
          {4, 3, 2},
          {3, 3, 2},
          {5, 3, 1},
          {2, 3, 3},
          {4, 4, 2},
          {3, 4, 3}}) {
      const GameModel game(GameConfig(n, c, k), rate);
      const AuditRow row = audit(game);
      table.add_row({row.config, row.rate, Table::fmt(row.matrices),
                     Table::fmt(row.nash), Table::fmt(row.theorem),
                     Table::fmt(row.false_accept), Table::fmt(row.false_reject),
                     Table::fmt(row.stable_not_nash)});
    }
  }
  table.print(std::cout);

  std::cout <<
      "\nReading:\n"
      "  - false rejects = 0 everywhere: the printed conditions are exactly\n"
      "    NECESSARY (the lemma proofs are sound and constructive).\n"
      "  - false accepts > 0 in configurations admitting an exception user\n"
      "    with two radios on a low-loaded channel: the printed exception\n"
      "    clause is not SUFFICIENT at small loads.\n\n";

  // How many structurally distinct equilibria hide behind the raw counts?
  std::cout << "Equilibrium structure (user/channel symmetry classes, "
               "constant R):\n";
  Table classes_table({"game", "raw NE", "symmetry classes",
                       "largest class"});
  for (const auto& [n, c, k] :
       {std::tuple<std::size_t, std::size_t, RadioCount>{4, 3, 2},
        {3, 3, 2},
        {4, 4, 2},
        {5, 3, 1}}) {
    const GameModel game(GameConfig(n, c, k), constant);
    const auto equilibria = enumerate_nash_equilibria(game);
    const auto sizes = symmetry_class_sizes(equilibria);
    classes_table.add_row({game.config().describe(),
                           Table::fmt(equilibria.size()),
                           Table::fmt(sizes.size()),
                           Table::fmt(sizes.empty() ? 0 : sizes.front())});
  }
  classes_table.print(std::cout);
  std::cout << "\nThe raw Nash counts collapse to a handful of structural\n"
               "classes once interchangeable users/channels are factored\n"
               "out — each class is one 'shape' of load-balanced spectrum.\n\n";

  std::cout << "Boundary analysis of the gap (constant R):\n"
            << "  exception user with 2 radios on a min channel of load m,\n"
            << "  empty max channel available; benefit of the min->max move\n"
            << "  = R*(4-m) / (m(m-1)(m+2)):\n";
  Table boundary({"m (min load)", "move benefit", "verdict"});
  const GameConfig probe_config(4, 3, 2);
  for (int m = 2; m <= 6; ++m) {
    const double benefit =
        (4.0 - m) / (static_cast<double>(m) * (m - 1) * (m + 2));
    boundary.add_row({Table::fmt(m), Table::fmt(benefit, 5),
                      benefit > 1e-12
                          ? "profitable -> NOT a NE (gap)"
                          : (benefit < -1e-12 ? "losing -> NE holds"
                                              : "neutral -> NE holds (Fig. 4)")});
  }
  boundary.print(std::cout);
  std::cout << "\nThe paper's own Figure 4 example sits exactly at m = 4, "
               "where the move is\nneutral and the characterization is "
               "correct; smaller instances expose the gap.\n";

  // Show the concrete smallest counterexample end to end.
  std::cout << "\nSmallest counterexample (N=4, k=2, C=3, constant R):\n";
  const GameModel game(probe_config, constant);
  const auto counterexample = StrategyMatrix::from_rows(
      probe_config, {{2, 0, 0}, {0, 1, 1}, {0, 1, 1}, {0, 1, 1}});
  std::cout << render_matrix(counterexample)
            << render_loads(counterexample) << '\n';
  std::cout << "  Theorem 1 predicts NE: "
            << (check_theorem1(counterexample).predicts_nash() ? "yes" : "no")
            << "\n  exact oracle: "
            << (is_nash_equilibrium(game, counterexample)
                    ? "equilibrium"
                    : "NOT an equilibrium")
            << "\n  u1's profitable deviation: "
            << game.best_single_change(counterexample, 0)->describe() << '\n';
  return 0;
}
