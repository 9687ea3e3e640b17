// E1 — Figures 1 & 2: the paper's worked non-equilibrium example.
//
// Regenerates: the strategy matrix (Fig. 2), the stacked channel-occupancy
// diagram (Fig. 1), per-user utilities, and the exact Lemma 1/2/3 witnesses
// the text walks through, then exhibits the best-response repair.
#include <iostream>

#include "mrca.h"

int main() {
  using namespace mrca;

  std::cout << "==============================================================\n"
            << " E1: Figures 1 & 2 (|N|=4, k=4, |C|=5, constant R)\n"
            << "==============================================================\n\n";

  const GameConfig config(4, 5, 4);
  const GameModel game(config, make_tdma_rate(1.0));
  const auto matrix = StrategyMatrix::from_rows(config, {{1, 1, 1, 1, 0},
                                                         {1, 0, 0, 1, 1},
                                                         {1, 2, 0, 1, 0},
                                                         {1, 0, 1, 0, 0}});

  std::cout << "Figure 2 (strategy matrix):\n" << render_matrix(matrix) << '\n';
  std::cout << "Figure 1 (channel occupancy):\n"
            << render_occupancy(matrix) << '\n'
            << render_loads(matrix) << "\n\n";
  std::cout << "Per-user utilities:\n" << render_utilities(game, matrix) << '\n';

  std::cout << "C_max = {c1}, C_min = {c5}, C_rem = {c2,c3,c4} (paper, Sec. 3)\n";
  std::cout << "  max-loaded: c" << (matrix.max_loaded_channels()[0] + 1)
            << ", min-loaded: c" << (matrix.min_loaded_channels()[0] + 1)
            << "\n\n";

  std::cout << "Lemma violations (paper: u2,u4 violate Lemma 1; u1/c4->c5 "
               "fires Lemma 2; u3/c2->c3 fires Lemma 3):\n";
  for (const auto& v : lemma1_violations(matrix)) {
    std::cout << "  [Lemma 1] u" << (v.user + 1) << ": " << v.detail << '\n';
  }
  for (const auto& v : lemma2_violations(matrix)) {
    std::cout << "  [Lemma 2] u" << (v.user + 1) << ": c" << (v.channel_b + 1)
              << " -> c" << (v.channel_c + 1) << " (" << v.detail << ")\n";
  }
  for (const auto& v : lemma3_violations(matrix)) {
    std::cout << "  [Lemma 3] u" << (v.user + 1) << ": c" << (v.channel_b + 1)
              << " -> c" << (v.channel_c + 1) << " (" << v.detail << ")\n";
  }

  std::cout << "\nNash equilibrium? "
            << (game.is_nash_equilibrium(matrix) ? "yes" : "no (as the paper argues)")
            << "\n\n";

  std::cout << "Best-response repair from the Figure 1 state:\n";
  DynamicsOptions options;
  options.record_welfare_trace = true;
  const DynamicsResult repaired = run_response_dynamics(game, matrix, options);
  std::cout << "  improving steps: " << repaired.improving_steps
            << ", converged: " << (repaired.converged ? "yes" : "no") << '\n';
  std::cout << "  welfare trace: ";
  for (std::size_t i = 0; i < repaired.welfare_trace.size(); ++i) {
    std::cout << (i ? " -> " : "") << repaired.welfare_trace[i];
  }
  std::cout << "\n\nResulting equilibrium:\n"
            << render_matrix(repaired.final_state)
            << render_loads(repaired.final_state) << '\n'
            << "  NE: " << (game.is_nash_equilibrium(repaired.final_state) ? "yes" : "no")
            << ", Theorem 1: "
            << (check_theorem1(repaired.final_state).predicts_nash() ? "yes" : "no")
            << ", welfare " << game.welfare(repaired.final_state) << " = optimum "
            << game.optimal_welfare() << '\n';
  return 0;
}
