// E11 (extensions) — ablations over the paper's explicit future-work axes:
//   (a) heterogeneous channels: load balancing gives way to discrete
//       water-filling; Proposition 1's delta <= 1 bound breaks;
//   (b) energy-priced radios: Lemma 1's "use all radios" breaks at a sharp
//       cost knee; the deployment level vs cost curve;
//   (c) RTS/CTS vs basic access: how the MAC choice reshapes R(k) and the
//       resulting price of anarchy;
//   (d) Algorithm 1 tie-break ablation: outcome quality is invariant.
// Exits nonzero if any allocation reported as an NE fails verification.
#include <iostream>

#include "mrca.h"

int main() {
  using namespace mrca;
  bool all_ne = true;

  std::cout << "==============================================================\n"
            << " E11: extension ablations (paper future-work axes)\n"
            << "==============================================================\n\n";

  // ---------------------------------------------------------------- (a)
  std::cout << "(a) Heterogeneous channels — one wide (rate 3.0) + three\n"
            << "    narrow (rate 1.0) channels, k=2, constant-in-k rates:\n\n";
  Table het_table({"N", "loads (wide first)", "delta", "per-radio spread",
                   "NE", "welfare", "optimum"});
  for (const std::size_t users : {2u, 4u, 6u, 10u}) {
    std::vector<std::shared_ptr<const RateFunction>> rates = {
        std::make_shared<ConstantRate>(3.0),
        std::make_shared<ConstantRate>(1.0),
        std::make_shared<ConstantRate>(1.0),
        std::make_shared<ConstantRate>(1.0)};
    const GameModel game(4, std::vector<RadioCount>(users, 2),
                         std::move(rates));
    const auto outcome = run_response_dynamics(
        game, sequential_allocation(
                  game, {.placement = PlacementRule::kBestMarginal}));
    const auto& ne = outcome.final_state;
    const bool nash = game.is_nash_equilibrium(ne);
    all_ne = all_ne && nash;
    std::string loads;
    for (ChannelId c = 0; c < 4; ++c) {
      if (c) loads += ',';
      loads += std::to_string(ne.channel_load(c));
    }
    het_table.add_row({Table::fmt(users), loads,
                       Table::fmt(ne.max_load() - ne.min_load()),
                       Table::fmt(game.per_radio_spread(ne), 4),
                       nash ? "yes" : "NO", Table::fmt(game.welfare(ne), 3),
                       Table::fmt(game.optimal_welfare(), 3)});
  }
  het_table.print(std::cout);
  std::cout << "\n    The wide channel absorbs ~3x the radios of a narrow\n"
            << "    one (water-filling); the delta <= 1 law of Theorem 1 is\n"
            << "    specific to identical channels.\n\n";

  // ---------------------------------------------------------------- (b)
  std::cout << "(b) Energy-priced radios — N=4, C=4, k=3, constant R=1:\n\n";
  Table energy_table({"cost/radio", "deployed (of 12)", "welfare",
                      "NE verified"});
  const GameConfig energy_config(4, 4, 3);
  for (const double cost :
       {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.1}) {
    const GameModel game(energy_config, std::make_shared<ConstantRate>(1.0),
                         cost);
    const auto outcome = run_response_dynamics(game, game.empty_strategy());
    const auto& ne = outcome.final_state;
    const bool nash = game.is_nash_equilibrium(ne);
    all_ne = all_ne && nash;
    energy_table.add_row({Table::fmt(cost, 2),
                          Table::fmt(static_cast<int>(ne.total_deployed())),
                          Table::fmt(game.welfare(ne), 3),
                          nash ? "yes" : "NO"});
  }
  energy_table.print(std::cout);
  std::cout << "\n    Lemma 1 (full deployment) is the cost=0 limit; radios\n"
            << "    switch off in discrete steps as the price crosses each\n"
            << "    marginal per-radio rate.\n\n";

  // ---------------------------------------------------------------- (c)
  std::cout << "(c) Access-mode ablation — price of anarchy when the game's\n"
            << "    R(k) comes from basic vs RTS/CTS DCF (C=6, k=2):\n\n";
  DcfParameters rts_params = DcfParameters::bianchi_fhss();
  rts_params.access_mode = DcfAccessMode::kRtsCts;
  const BianchiDcfModel basic_model(DcfParameters::bianchi_fhss());
  const BianchiDcfModel rts_model(rts_params);
  Table mac_table({"N", "PoA basic", "PoA RTS/CTS", "NE welfare basic",
                   "NE welfare RTS/CTS"});
  for (const std::size_t users : {4u, 8u, 16u, 32u}) {
    const GameConfig config(users, 6, 2);
    const GameModel basic_game(
        config, basic_model.make_practical_rate(config.total_radios()));
    const GameModel rts_game(
        config, rts_model.make_practical_rate(config.total_radios()));
    mac_table.add_row({Table::fmt(users),
                       Table::fmt(price_of_anarchy(basic_game), 4),
                       Table::fmt(price_of_anarchy(rts_game), 4),
                       Table::fmt(nash_welfare(basic_game), 3),
                       Table::fmt(nash_welfare(rts_game), 3)});
  }
  mac_table.print(std::cout);
  std::cout << "\n    RTS/CTS flattens R(k), pushing the selfish outcome\n"
            << "    back towards Theorem 2's PoA = 1 ideal under load.\n\n";

  // ---------------------------------------------------------------- (d)
  std::cout << "(d) Algorithm 1 tie-break ablation (N=9, C=6, k=3,\n"
            << "    constant R, 50 seeds for the random policy):\n\n";
  const GameModel game(GameConfig(9, 6, 3),
                       std::make_shared<ConstantRate>(1.0));
  const StrategyMatrix lowest = sequential_allocation(game);
  const bool lowest_ne = is_nash_equilibrium(game, lowest);
  std::size_t random_ne = 0;
  RunningStats welfare_stats;
  Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    SequentialOptions options;
    options.tie_break = TieBreak::kRandom;
    const StrategyMatrix ne = sequential_allocation(game, options, &rng);
    if (is_nash_equilibrium(game, ne)) ++random_ne;
    welfare_stats.add(game.welfare(ne));
  }
  std::cout << "    lowest-index policy: NE="
            << (lowest_ne ? "yes" : "NO")
            << ", welfare " << game.welfare(lowest) << '\n'
            << "    random policy:       NE=" << random_ne << "/50, welfare "
            << welfare_stats.mean() << " +- " << welfare_stats.stddev()
            << "\n    Tie-breaking is outcome-irrelevant: every policy lands\n"
            << "    in the same (welfare-equivalent) equilibrium class.\n";
  return all_ne && lowest_ne && random_ne == 50 ? 0 : 1;
}
