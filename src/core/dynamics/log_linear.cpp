// Log-linear (Glauber / simulated-annealing) play over the exact potential.
//
// Each step activates one uniformly random user and samples its next
// strategy from the Gibbs distribution over {stay} ∪ {single-radio
// changes}, with weight exp(benefit / T). For single-radio changes the
// utility difference IS the Rosenthal potential difference
// (tests/reference_potential.h), so this is exactly Glauber dynamics on the
// potential landscape: as T -> 0 the stationary distribution concentrates
// on the potential maximizers, and each step costs one shared-kernel scan —
// the same O(|C|^2) enumeration the best-response driver uses.
//
// The temperature anneals geometrically from spec.temp_start to
// spec.temp_end over the activation budget (a single parsed temperature
// pins it). Convergence is declared when a periodic exact check finds the
// state single-move stable: at low temperature such a state is absorbing
// up to exp(-gap/T), and the check itself draws no randomness, so the Rng
// stream stays a pure function of the activation sequence.

#include <cmath>
#include <vector>

#include "core/analysis/deviation_detail.h"
#include "core/dynamics/run_ledger.h"

namespace mrca {

DynamicsResult run_log_linear_dynamics(const DynamicsSpec& spec,
                                       const GameModel& model,
                                       const StrategyMatrix& start,
                                       const DynamicsOptions& options,
                                       Rng& rng) {
  RunLedger ledger(model, start, options, RunLedger::Cache::kKept);
  const std::size_t users = model.num_users();
  const StrategyMatrix& state = ledger.state();
  const UtilityCache& cache = ledger.cache();
  const std::size_t budget = options.max_activations;
  const double ratio = spec.temp_end / spec.temp_start;
  const auto rate_at = [&](ChannelId c, RadioCount load) {
    return model.rate(c, load);
  };
  // The run's stability check lends its scratch to the Gibbs scans.
  detail::ScanBuffers& buffers = ledger.stability().buffers();
  std::vector<SingleChange> candidates;
  std::vector<double> weights;
  UserId user = 0;
  // The cache's tracked loads equal the model's perceived loads under any
  // topology (the pairing is validated at construction).
  const auto load_at = [&](ChannelId c) { return cache.load_seen(user, c); };
  while (ledger.within_budget()) {
    if (ledger.stable_at_checkpoint()) break;
    const double temp =
        budget <= 1 || ratio == 1.0
            ? spec.temp_end
            : spec.temp_start *
                  std::pow(ratio, static_cast<double>(ledger.activations()) /
                                      static_cast<double>(budget - 1));
    user = static_cast<UserId>(rng.index(users));
    ledger.count_activation();

    candidates.clear();
    weights.clear();
    double best = 0.0;  // "stay" is always on the menu, at benefit 0
    const bool has_spare = state.user_total(user) < model.budget(user);
    detail::scan_single_changes(state, user, rate_at, model.radio_cost(),
                                has_spare, load_at, buffers,
                                [&](const SingleChange& change) {
                                  candidates.push_back(change);
                                  if (change.benefit > best) {
                                    best = change.benefit;
                                  }
                                });
    // Gibbs sampling, shifted by the best benefit so the largest weight is
    // exactly 1 and nothing overflows: weight_i = exp((b_i - best) / T).
    // At tiny T the stay weight exp(-best/T) underflows to 0 whenever an
    // improving change exists, which is precisely the argmax limit.
    const double stay_weight = std::exp(-best / temp);
    double total = stay_weight;
    for (const SingleChange& change : candidates) {
      const double weight = std::exp((change.benefit - best) / temp);
      weights.push_back(weight);
      total += weight;
    }
    double draw = rng.next_double() * total - stay_weight;
    if (draw < 0.0) continue;  // stay put
    std::size_t chosen = candidates.size() - 1;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      draw -= weights[i];
      if (draw < 0.0) {
        chosen = i;
        break;
      }
    }
    ledger.apply(candidates[chosen]);
    ledger.improved();
  }
  return ledger.finish();
}

}  // namespace mrca
