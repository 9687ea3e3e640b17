// Cognitive-radio scenario: dynamic spectrum with devices joining and
// leaving (the paper's §1 motivates exactly this setting; the single-stage
// game is re-solved as the population changes).
//
// Timeline:
//   - devices join one by one; each newcomer allocates its radios greedily
//     onto the least-loaded channels (the Algorithm 1 placement rule);
//   - a device leaves, unbalancing the spectrum;
//   - the remaining selfish devices repair the allocation by best-response
//     moves until a new Nash equilibrium forms.
//
//   $ ./cognitive_radio
#include <iostream>

#include "mrca.h"

namespace {

void report(const mrca::GameModel& game, const mrca::StrategyMatrix& state,
            const std::string& label) {
  std::cout << label << "\n  " << mrca::render_loads(state)
            << "\n  welfare " << game.welfare(state) << " / optimum "
            << game.optimal_welfare() << ", fairness "
            << mrca::utility_fairness(game, state) << ", NE: "
            << (mrca::is_nash_equilibrium(game, state) ? "yes" : "no")
            << "\n\n";
}

}  // namespace

int main() {
  using namespace mrca;

  const GameConfig config(/*users=*/5, /*channels=*/4, /*radios=*/2);
  const auto rate = make_tdma_rate(1.0);
  const GameModel game(config, rate);
  std::cout << "Cognitive radio band: " << config.describe()
            << ", constant R = 1 Mbit/s per channel\n\n";

  // Phase 1: devices appear one at a time.
  StrategyMatrix spectrum = game.empty_strategy();
  for (UserId device = 0; device < config.num_users; ++device) {
    allocate_user_sequentially(game, spectrum, device);
    std::cout << "device u" << (device + 1) << " joins -> "
              << render_loads(spectrum) << '\n';
  }
  std::cout << '\n';
  report(game, spectrum, "After all joins (sequential allocation):");

  // Phase 2: device u2 vacates the band (secondary user preempted).
  for (ChannelId c = 0; c < config.num_channels; ++c) {
    while (spectrum.at(1, c) > 0) spectrum.remove_radio(1, c);
  }
  report(game, spectrum, "Device u2 leaves (radios withdrawn):");

  // Phase 3: u2 returns later and must fit into the now-occupied band.
  allocate_user_sequentially(game, spectrum, 1);
  report(game, spectrum, "Device u2 re-joins on least-loaded channels:");

  // Phase 4: a burst of churn — the three devices camped on channels c1/c2
  // leave the band FOR GOOD. The population shrinks, so the remaining
  // selfish devices play a smaller game; half the spectrum now lies idle
  // and their best-response moves repair the allocation to a fresh
  // equilibrium.
  const std::vector<UserId> remaining = {1, 3};  // u2 and u4 stay
  const GameConfig shrunk_config(remaining.size(), config.num_channels,
                                 config.radios_per_user);
  const GameModel shrunk_game(shrunk_config, rate);
  StrategyMatrix shrunk = shrunk_game.empty_strategy();
  for (UserId slot = 0; slot < remaining.size(); ++slot) {
    shrunk.set_row(slot, spectrum.row(remaining[slot]));
  }
  report(shrunk_game, shrunk, "Devices u1, u3, u5 leave for good:");

  DynamicsOptions repair;
  repair.granularity = ResponseGranularity::kBestResponse;
  const DynamicsResult repaired =
      run_response_dynamics(shrunk_game, shrunk, repair);
  std::cout << "Selfish repair: " << repaired.improving_steps
            << " best-response moves, converged: "
            << (repaired.converged ? "yes" : "no") << '\n';
  report(shrunk_game, repaired.final_state, "After selfish repair:");

  std::cout << "Final allocation (rows: u2, u4):\n"
            << render_matrix(repaired.final_state);
  return 0;
}
