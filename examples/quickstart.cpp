// Quickstart: the paper's model in ~40 lines.
//
// Four users, each with a 4-radio device, share six orthogonal channels
// (the Figure 5 setting). Algorithm 1 allocates the radios sequentially;
// the result is a load-balanced, Pareto-optimal Nash equilibrium.
//
//   $ ./quickstart
#include <iostream>

#include "mrca.h"

int main() {
  using namespace mrca;

  // 1. The setting: |N| = 4 users, k = 4 radios each, |C| = 6 channels,
  //    reservation-TDMA MAC => the total rate per channel is constant
  //    (1 Mbit/s here) no matter how many radios share it.
  const GameConfig config(/*users=*/4, /*channels=*/6, /*radios=*/4);
  const GameModel game(config, make_tdma_rate(1.0));

  std::cout << "Multi-radio channel allocation (" << config.describe()
            << ")\n\n";

  // 2. Allocate with the paper's Algorithm 1.
  const StrategyMatrix allocation = sequential_allocation(game);

  std::cout << "Strategy matrix (Figure 2 style):\n"
            << render_matrix(allocation) << '\n'
            << "Channel occupancy (Figure 1 style):\n"
            << render_occupancy(allocation) << '\n'
            << render_loads(allocation) << "\n\n";

  // 3. Verify the paper's claims on this instance.
  std::cout << "Nash equilibrium (Definition 1):      "
            << (is_nash_equilibrium(game, allocation) ? "yes" : "NO") << '\n';
  std::cout << "Theorem 1 characterization satisfied: "
            << (check_theorem1(allocation).predicts_nash() ? "yes" : "NO")
            << '\n';
  std::cout << "Load balanced (Proposition 1):        "
            << (proposition1_holds(allocation) ? "yes" : "NO") << '\n';
  std::cout << "System-optimal welfare (Theorem 2):   "
            << (welfare_certifies_pareto(game, allocation) ? "yes" : "NO")
            << "\n\n";

  // 4. Who gets what.
  std::cout << "Per-user rates:\n" << render_utilities(game, allocation);
  std::cout << "Jain fairness index: "
            << utility_fairness(game, allocation) << '\n';
  return 0;
}
