// E3/E4 — Figures 4 & 5: the paper's two Nash-equilibrium examples.
//
//   Figure 4: |N|=7, k=4, |C|=6 — contains an "exception" user (u1) that
//             covers every min-loaded channel with two radios each.
//   Figure 5: |N|=4, k=4, |C|=6 — every user spreads; no exception.
//
// For each: render the allocation, verify Theorem 1's two conditions
// (including the exception clause), verify against the exact best-response
// oracle, and report welfare/fairness. Also regenerates equilibria of the
// same shapes with Algorithm 1 and best-response dynamics.
#include <iostream>

#include "mrca.h"

namespace {

using namespace mrca;

void analyze(const std::string& title, const GameModel& game,
             const StrategyMatrix& matrix) {
  std::cout << title << '\n'
            << render_occupancy(matrix) << render_loads(matrix) << "\n\n"
            << render_matrix(matrix) << '\n';
  const Theorem1Result theorem = check_theorem1(matrix);
  std::cout << "  Theorem 1 condition 1 (delta <= 1):  "
            << (theorem.condition1 ? "holds" : "VIOLATED") << '\n'
            << "  Theorem 1 condition 2 (radio spread): "
            << (theorem.condition2 ? "holds" : "VIOLATED") << '\n'
            << "  exact Nash check (best-response DP):  "
            << (is_nash_equilibrium(game, matrix) ? "equilibrium" : "NOT an equilibrium")
            << '\n'
            << "  welfare: " << game.welfare(matrix) << " / optimum "
            << game.optimal_welfare() << ", Jain fairness "
            << utility_fairness(game, matrix) << "\n\n";
}

}  // namespace

int main() {
  std::cout << "==============================================================\n"
            << " E3: Figure 4 — NE with an exception user (N=7, k=4, C=6)\n"
            << "==============================================================\n\n";
  {
    const GameConfig config(7, 6, 4);
    const GameModel game(config, make_tdma_rate(1.0));
    const auto fig4 = StrategyMatrix::from_rows(config, {{0, 0, 0, 0, 2, 2},
                                                         {1, 1, 1, 1, 0, 0},
                                                         {1, 1, 1, 1, 0, 0},
                                                         {1, 1, 1, 1, 0, 0},
                                                         {1, 1, 0, 0, 1, 1},
                                                         {0, 0, 1, 1, 1, 1},
                                                         {1, 1, 1, 1, 0, 0}});
    analyze("Figure 4 allocation:", game, fig4);
    std::cout << "  u1 is the exception user: it covers every min-loaded "
                 "channel (c5, c6)\n  with 2 radios each; its min->max move "
                 "is exactly utility-neutral\n  (benefit "
              << move_benefit(game, fig4, {0, 4, 0})
              << "), the m=4 boundary of the reproduction audit.\n\n";
  }

  std::cout << "==============================================================\n"
            << " E4: Figure 5 — NE with no exception (N=4, k=4, C=6)\n"
            << "==============================================================\n\n";
  {
    const GameConfig config(4, 6, 4);
    const GameModel game(config, make_tdma_rate(1.0));
    const auto fig5 = StrategyMatrix::from_rows(config, {{1, 1, 1, 1, 0, 0},
                                                         {1, 1, 1, 1, 0, 0},
                                                         {1, 1, 0, 0, 1, 1},
                                                         {0, 0, 1, 1, 1, 1}});
    analyze("Figure 5 allocation:", game, fig5);

    // The same equilibrium class is reached constructively.
    std::cout << "Algorithm 1 on the Figure 5 setting:\n";
    const StrategyMatrix constructed = sequential_allocation(game);
    analyze("", game, constructed);

    std::cout << "Best-response dynamics from a random allocation:\n";
    Rng rng(77);
    const StrategyMatrix start = random_full_allocation(game, rng);
    const DynamicsResult dynamics = run_response_dynamics(game, start);
    std::cout << "  converged after " << dynamics.improving_steps
              << " improving moves\n";
    analyze("", game, dynamics.final_state);
  }
  return 0;
}
