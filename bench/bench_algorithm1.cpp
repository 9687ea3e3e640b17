// E7 — Algorithm 1: correctness sweep and order-fairness report. Exits
// nonzero if any sweep cell fails a verification column.
#include <iostream>

#include "mrca.h"

namespace {

using namespace mrca;

/// Prints both reports; false if any sweep cell failed verification.
bool correctness_and_order_report() {
  std::cout << "==============================================================\n"
            << " E7: Algorithm 1 — correctness sweep and order fairness\n"
            << "==============================================================\n\n";

  // Correctness: every (N, C, k) cell yields a verified NE.
  Table sweep({"N", "C", "k", "loads balanced", "NE", "welfare=opt (const R)"});
  bool verified = true;
  for (const std::size_t users : {2u, 5u, 10u, 25u}) {
    for (const std::size_t channels : {3u, 8u, 12u}) {
      for (const RadioCount radios : {1, 3, 8}) {
        if (static_cast<std::size_t>(radios) > channels) continue;
        const GameModel game(GameConfig(users, channels, radios),
                        std::make_shared<ConstantRate>(1.0));
        const StrategyMatrix ne = sequential_allocation(game);
        const bool balanced = ne.max_load() - ne.min_load() <= 1;
        const bool nash = is_nash_equilibrium(game, ne);
        const bool optimal =
            std::abs(game.welfare(ne) - game.optimal_welfare()) < 1e-9;
        verified = verified && balanced && nash && optimal;
        sweep.add_row({Table::fmt(users), Table::fmt(channels),
                       Table::fmt(radios), balanced ? "yes" : "NO",
                       nash ? "yes" : "NO", optimal ? "yes" : "NO"});
      }
    }
  }
  sweep.print(std::cout);

  // Order (dis)advantage: does allocating first pay? Under constant R all
  // users end symmetric; under decreasing R early users keep a small edge.
  std::cout << "\nFirst-mover advantage (N=6, C=4, k=2, 200 random orders):\n";
  Table order_table({"rate function", "mean U(first)", "mean U(last)",
                     "first/last"});
  for (const auto& [label, rate] :
       std::vector<std::pair<std::string, std::shared_ptr<const RateFunction>>>{
           {"constant", std::make_shared<ConstantRate>(1.0)},
           {"R(k)=1/k", std::make_shared<PowerLawRate>(1.0, 1.0)}}) {
    const GameModel game(GameConfig(6, 4, 2), rate);
    Rng rng(321);
    RunningStats first_user;
    RunningStats last_user;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<UserId> order = {0, 1, 2, 3, 4, 5};
      rng.shuffle(order);
      SequentialOptions options;
      options.user_order = order;
      options.tie_break = TieBreak::kRandom;
      const StrategyMatrix ne = sequential_allocation(game, options, &rng);
      first_user.add(game.utility(ne, order.front()));
      last_user.add(game.utility(ne, order.back()));
    }
    order_table.add_row({label, Table::fmt(first_user.mean(), 4),
                         Table::fmt(last_user.mean(), 4),
                         Table::fmt(first_user.mean() / last_user.mean(), 4)});
  }
  order_table.print(std::cout);
  std::cout << '\n';
  return verified;
}

}  // namespace

int main() { return correctness_and_order_report() ? 0 : 1; }
