#include "core/analysis/efficiency.h"

#include <algorithm>
#include <limits>

#include "common/stats.h"
#include "core/alloc/best_response.h"
#include "core/alloc/sequential.h"
#include "core/analysis/lemmas.h"

namespace mrca {

std::vector<RadioCount> nash_load_profile(const GameConfig& config) {
  const auto total = static_cast<std::size_t>(config.total_radios());
  const std::size_t channels = config.num_channels;
  const auto base = static_cast<RadioCount>(total / channels);
  const std::size_t heavy = total % channels;
  std::vector<RadioCount> loads(channels, base);
  for (std::size_t c = 0; c < heavy; ++c) loads[c] = base + 1;
  return loads;
}

double nash_welfare(const GameModel& model) {
  if (theorem1_preconditions_hold(model)) {
    // Closed form over the balanced load profile (uniform rates, so any
    // channel's table serves).
    double welfare = 0.0;
    for (const RadioCount load : nash_load_profile(model.config())) {
      if (load > 0) welfare += model.rate(0, load);
    }
    return welfare;
  }
  // Exact fallback: reach a canonical equilibrium deterministically
  // (generalized Algorithm 1 start, lowest-index ties, round-robin
  // best-response play). Convergence under kBestResponse means every
  // user's exact DP best response gains nothing — the Definition 1 check.
  const StrategyMatrix start = sequential_allocation(model);
  const DynamicsResult result = run_response_dynamics(model, start);
  if (!result.converged) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return model.welfare(result.final_state);
}

double price_of_anarchy(const GameModel& model) {
  const double at_nash = nash_welfare(model);
  if (!(at_nash > 0.0)) {  // NaN-safe: NaN compares false
    return std::numeric_limits<double>::quiet_NaN();
  }
  return model.optimal_welfare() / at_nash;
}

RadioCount load_imbalance(const StrategyMatrix& strategies) {
  return strategies.max_load() - strategies.min_load();
}

RadioCount load_imbalance(const GameModel& model,
                          const StrategyMatrix& strategies) {
  model.validate(strategies);
  // Every channel of today's models is allocatable by someone, so the scan
  // covers the full channel set — including empty channels, whose zero
  // loads rightly count toward imbalance (they could have been used).
  RadioCount lo = strategies.channel_load(0);
  RadioCount hi = lo;
  for (ChannelId c = 1; c < model.num_channels(); ++c) {
    lo = std::min(lo, strategies.channel_load(c));
    hi = std::max(hi, strategies.channel_load(c));
  }
  return hi - lo;
}

double utility_fairness(const GameModel& model,
                        const StrategyMatrix& strategies) {
  return jain_fairness(model.utilities(strategies));
}

double welfare_efficiency(const GameModel& model,
                          const StrategyMatrix& strategies) {
  const double optimum = model.optimal_welfare();
  if (optimum <= 0.0) return 1.0;
  return model.welfare(strategies) / optimum;
}

}  // namespace mrca
