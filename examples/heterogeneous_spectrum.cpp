// Heterogeneous spectrum: what changes when channels are NOT identical?
//
// The paper assumes equal-bandwidth channels and proves selfish allocation
// load-balances them. This example relaxes that assumption (its natural
// future-work axis): a band with one wide TV-whitespace-style channel and
// several narrow ones. Selfish multi-radio devices now WATER-FILL: the
// wide channel attracts proportionally more radios until per-radio rates
// equalize, and the paper's delta <= 1 law breaks while efficiency
// survives.
//
//   $ ./heterogeneous_spectrum
#include <iostream>

#include "mrca.h"

int main() {
  using namespace mrca;

  const GameConfig config(/*users=*/6, /*channels=*/4, /*radios=*/2);
  std::vector<std::shared_ptr<const RateFunction>> rates = {
      std::make_shared<ConstantRate>(4.0),  // one wide channel
      std::make_shared<ConstantRate>(1.0),
      std::make_shared<ConstantRate>(1.0),
      std::make_shared<ConstantRate>(2.0),  // one mid-size channel
  };
  const GameModel game(config.num_channels,
                       std::vector<RadioCount>(config.num_users,
                                               config.radios_per_user),
                       rates);

  std::cout << "Heterogeneous band (" << config.describe()
            << "), channel rates: 4.0 / 1.0 / 1.0 / 2.0 Mbit/s\n\n";

  const StrategyMatrix greedy = sequential_allocation(
      game, {.placement = PlacementRule::kBestMarginal});
  const auto outcome = run_response_dynamics(game, greedy);
  const StrategyMatrix& ne = outcome.final_state;

  std::cout << "Selfish allocation (greedy + best-response polish, "
            << outcome.improving_steps << " extra moves):\n"
            << render_matrix(ne) << render_loads(ne) << "\n\n";

  std::cout << "Verified Nash equilibrium: "
            << (game.is_nash_equilibrium(ne) ? "yes" : "NO") << "\n\n";

  Table table({"channel", "rate [Mbit/s]", "radios", "per-radio [Mbit/s]"});
  for (ChannelId c = 0; c < config.num_channels; ++c) {
    const RadioCount load = ne.channel_load(c);
    table.add_row({Table::label("c", c + 1),
                   Table::fmt(game.rate_function(c).rate(1), 2),
                   Table::fmt(static_cast<int>(load)),
                   Table::fmt(load > 0 ? game.rate_function(c).rate(load) /
                                             static_cast<double>(load)
                                       : 0.0,
                              4)});
  }
  table.print(std::cout);

  std::cout << "\nload spread (max-min): " << (ne.max_load() - ne.min_load())
            << "  <- Proposition 1's delta <= 1 does NOT survive\n"
            << "per-radio rate spread:  " << game.per_radio_spread(ne)
            << "  <- but per-radio rates water-fill to near-equality\n\n";

  std::cout << "welfare " << game.welfare(ne) << " Mbit/s vs optimum "
            << game.optimal_welfare() << " Mbit/s ("
            << 100.0 * game.welfare(ne) / game.optimal_welfare()
            << "% efficient)\n";
  std::cout << "per-user rates:";
  for (const double u : game.utilities(ne)) std::cout << ' ' << u;
  std::cout << '\n';
  return 0;
}
