#include "engine/sim_tier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.h"
#include "mac/bianchi.h"
#include "mac/tdma.h"

namespace mrca::engine {
namespace {

/// Total MAC rate (bit/s) on one channel carrying `load` stations, from the
/// analytic model matching the simulated MAC at the simulator's default
/// parameters.
double mac_total_rate_bps(const SimTierSpec& tier, RadioCount load) {
  const sim::NetworkOptions simulated;
  switch (tier.mac) {
    case sim::MacKind::kTdma:
      return TdmaModel(simulated.tdma).total_rate_bps(load);
    case sim::MacKind::kDcf:
      return BianchiDcfModel(simulated.dcf).saturation_throughput(load)
          .throughput_bps;
  }
  throw std::logic_error("sim_tier: unknown MAC kind");
}

}  // namespace

std::vector<double> analytic_per_user_bps(const StrategyMatrix& strategies,
                                          const SimTierSpec& tier) {
  // The Bianchi fixed point costs a solver run per load value, so rates are
  // memoized per distinct channel load.
  std::vector<double> rate_by_load(
      static_cast<std::size_t>(strategies.max_load()) + 1, -1.0);
  std::vector<double> per_user(strategies.num_users(), 0.0);
  for (const ChannelId c : strategies.occupied_channels()) {
    const RadioCount load = strategies.channel_load(c);
    double& rate = rate_by_load[static_cast<std::size_t>(load)];
    if (rate < 0.0) rate = mac_total_rate_bps(tier, load);
    for (UserId i = 0; i < strategies.num_users(); ++i) {
      const RadioCount own = strategies.at(i, c);
      if (own == 0) continue;
      per_user[i] += rate * static_cast<double>(own) /
                     static_cast<double>(load);
    }
  }
  return per_user;
}

SimTierOutcome replay_strategy(const StrategyMatrix& strategies,
                               const SimTierSpec& tier, std::uint64_t seed,
                               const std::vector<double>& analytic) {
  if (tier.duration_s <= 0.0 || !std::isfinite(tier.duration_s)) {
    throw std::invalid_argument("sim tier: duration must be finite and > 0");
  }
  sim::NetworkOptions options;
  options.mac = tier.mac;
  options.duration_s = tier.duration_s;
  options.seed = seed;
  const sim::NetworkResult measured = sim::simulate_network(strategies, options);

  SimTierOutcome outcome;
  outcome.total_bps = measured.total_bps();
  outcome.fairness = jain_fairness(measured.per_user_bps);

  double gap_sum = 0.0;
  std::size_t active_users = 0;
  for (UserId i = 0; i < strategies.num_users(); ++i) {
    if (analytic[i] <= 0.0) continue;
    ++active_users;
    gap_sum += std::abs(measured.per_user_bps[i] - analytic[i]) / analytic[i];
  }
  if (active_users > 0) {
    outcome.throughput_gap = gap_sum / static_cast<double>(active_users);
  }

  const std::vector<ChannelId> occupied = strategies.occupied_channels();
  if (occupied.size() > 1) {
    double lo = measured.per_channel_bps[occupied.front()];
    double hi = lo;
    double sum = 0.0;
    for (const ChannelId c : occupied) {
      const double bps = measured.per_channel_bps[c];
      lo = std::min(lo, bps);
      hi = std::max(hi, bps);
      sum += bps;
    }
    const double mean = sum / static_cast<double>(occupied.size());
    if (mean > 0.0) outcome.channel_imbalance = (hi - lo) / mean;
  }
  return outcome;
}

}  // namespace mrca::engine
