// Mesh-network scenario: multi-radio mesh routers contending on 802.11
// channels (the paper's motivating deployment, cf. its references to
// multi-radio mesh work [1, 2, 13]).
//
// Pipeline:
//   1. Derive the practical CSMA/CA rate function R(k) from the Bianchi
//      DCF model (the curve the paper's Figure 3 sketches).
//   2. Let selfish routers allocate radios with Algorithm 1.
//   3. Validate the predicted per-router rates against the event-driven
//      802.11 DCF simulator, channel by channel.
//
//   $ ./mesh_network [routers] [channels] [radios]
#include <cstdlib>
#include <iostream>

#include "mrca.h"

int main(int argc, char** argv) {
  using namespace mrca;

  const std::size_t routers =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 6;
  const std::size_t channels =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 3;
  const RadioCount radios = argc > 3 ? std::atoi(argv[3]) : 2;

  const GameConfig config(routers, channels, radios);
  std::cout << "Mesh network: " << config.describe() << ", 802.11 DCF MAC\n\n";

  // 1. MAC model -> rate function (Mbit/s).
  const DcfParameters mac = DcfParameters::bianchi_fhss();
  const BianchiDcfModel bianchi(mac);
  const GameModel game(config,
                       bianchi.make_practical_rate(config.total_radios()));

  std::cout << "Practical CSMA/CA total rate per channel (Bianchi model):\n";
  Table rate_table({"radios on channel", "R(k) [Mbit/s]"});
  for (int k = 1; k <= std::min(config.total_radios(), 8); ++k) {
    rate_table.add_row(
        {Table::fmt(k), Table::fmt(game.rate_function(0).rate(k), 4)});
  }
  rate_table.print(std::cout);
  std::cout << '\n';

  // 2. Selfish allocation.
  const StrategyMatrix allocation = sequential_allocation(game);
  std::cout << "Selfish allocation (Algorithm 1):\n"
            << render_matrix(allocation) << render_loads(allocation) << '\n';
  std::cout << "Nash equilibrium: "
            << (is_nash_equilibrium(game, allocation) ? "yes" : "NO")
            << ", price of anarchy vs ideal spectrum use: "
            << price_of_anarchy(game) << "\n\n";

  // 3. Cross-validate with the DES.
  sim::NetworkOptions options;
  options.mac = sim::MacKind::kDcf;
  options.dcf = mac;
  options.duration_s = 25.0;
  options.seed = 2026;
  std::cout << "Simulating " << options.duration_s
            << " s of saturated 802.11 DCF per channel...\n";
  const sim::NetworkResult measured = sim::simulate_network(allocation, options);

  Table results({"router", "predicted [Mbit/s]", "simulated [Mbit/s]",
                 "error [%]"});
  for (UserId i = 0; i < routers; ++i) {
    const double predicted = game.utility(allocation, i);
    const double simulated = measured.per_user_bps[i] / 1e6;
    const double error =
        predicted > 0 ? 100.0 * (simulated - predicted) / predicted : 0.0;
    results.add_row({Table::label("u", i + 1), Table::fmt(predicted, 4),
                     Table::fmt(simulated, 4), Table::fmt(error, 2)});
  }
  results.print(std::cout);

  std::cout << "\nTotal: predicted " << game.welfare(allocation)
            << " Mbit/s, simulated " << measured.total_bps() / 1e6
            << " Mbit/s\n";
  std::cout << "Jain fairness (simulated): "
            << jain_fairness(measured.per_user_bps) << '\n';
  return 0;
}
