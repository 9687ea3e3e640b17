// Convergence study: what happens when there is NO central coordinator?
//
// The paper proves its equilibrium via a centralized sequential algorithm
// and names a distributed implementation as ongoing work. This example
// studies both selfish dynamics the library provides:
//   - asynchronous better/best-response play from random allocations,
//   - the synchronous randomized distributed protocol (stale observations,
//     simultaneous moves) across activation probabilities.
//
//   $ ./convergence_study [seeds]
#include <cstdlib>
#include <iostream>

#include "mrca.h"

int main(int argc, char** argv) {
  using namespace mrca;

  const int trials = argc > 1 ? std::atoi(argv[1]) : 25;
  const GameConfig config(/*users=*/8, /*channels=*/6, /*radios=*/3);
  const GameModel game(config, make_tdma_rate(1.0));
  std::cout << "Convergence study: " << config.describe()
            << ", constant R, " << trials << " random starts each\n\n";

  // Part 1: asynchronous response dynamics.
  std::cout << "Asynchronous selfish play (round-robin activation):\n";
  Table dynamics_table({"granularity", "converged", "mean activations",
                        "mean improving moves", "always NE"});
  for (const auto granularity : {ResponseGranularity::kBestResponse,
                                 ResponseGranularity::kBestSingleMove}) {
    RunningStats activations;
    RunningStats moves;
    int converged = 0;
    bool all_nash = true;
    Rng rng(1234);
    for (int trial = 0; trial < trials; ++trial) {
      const StrategyMatrix start = random_full_allocation(game, rng);
      DynamicsOptions options;
      options.granularity = granularity;
      const DynamicsResult result =
          run_response_dynamics(game, start, options, &rng);
      if (result.converged) ++converged;
      activations.add(static_cast<double>(result.activations));
      moves.add(static_cast<double>(result.improving_steps));
      all_nash &= is_nash_equilibrium(game, result.final_state);
    }
    dynamics_table.add_row(
        {granularity == ResponseGranularity::kBestResponse ? "best response"
                                                           : "best single move",
         Table::fmt(converged) + "/" + Table::fmt(trials),
         Table::fmt(activations.mean(), 1), Table::fmt(moves.mean(), 1),
         all_nash ? "yes" : "no"});
  }
  dynamics_table.print(std::cout);

  // Part 2: the distributed randomized protocol.
  std::cout << "\nDistributed protocol (simultaneous moves on stale state):\n";
  Table dist_table({"activation p", "converged", "mean rounds", "mean moves"});
  for (const double p : {0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}) {
    RunningStats rounds;
    RunningStats moves;
    int converged = 0;
    Rng rng(4321);
    for (int trial = 0; trial < trials; ++trial) {
      const StrategyMatrix start = random_full_allocation(game, rng);
      DistributedOptions options;
      options.activation_probability = p;
      options.max_rounds = 20000;
      const DistributedResult result =
          run_distributed_allocation(game, start, options, rng);
      if (result.converged) ++converged;
      rounds.add(static_cast<double>(result.rounds));
      moves.add(static_cast<double>(result.total_moves));
    }
    dist_table.add_row({Table::fmt(p, 2),
                        Table::fmt(converged) + "/" + Table::fmt(trials),
                        Table::fmt(rounds.mean(), 1),
                        Table::fmt(moves.mean(), 1)});
  }
  dist_table.print(std::cout);
  std::cout << "\nReading: moderate activation probabilities converge fast; "
               "p -> 1 herds all\nusers onto the same under-loaded channels "
               "and oscillates before settling.\n";
  return 0;
}
