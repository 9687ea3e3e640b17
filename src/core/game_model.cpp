#include "core/game_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/stats.h"
#include "core/analysis/deviation_detail.h"

namespace mrca {
namespace {

/// Adapter feeding the model's memoized per-channel tables into the shared
/// deviation/DP implementation (deviation_detail.h).
struct ModelRate {
  const GameModel* model;
  double operator()(ChannelId channel, RadioCount load) const {
    return model->rate(channel, load);
  }
};

GameConfig config_from_budgets(std::size_t num_channels,
                               const std::vector<RadioCount>& budgets) {
  if (budgets.empty()) {
    throw std::invalid_argument("GameModel: need at least one user");
  }
  RadioCount max_budget = 0;
  for (const RadioCount budget : budgets) {
    if (budget < 0) {
      throw std::invalid_argument("GameModel: negative radio budget");
    }
    if (static_cast<std::size_t>(budget) > num_channels) {
      throw std::invalid_argument(
          "GameModel: each budget must satisfy k_i <= |C|");
    }
    max_budget = std::max(max_budget, budget);
  }
  if (max_budget == 0) {
    throw std::invalid_argument(
        "GameModel: at least one user needs a radio");
  }
  return GameConfig(budgets.size(), num_channels, max_budget);
}

}  // namespace

GameModel::GameModel(GameConfig config,
                     std::shared_ptr<const RateFunction> rate,
                     double radio_cost)
    : GameModel(config.num_channels,
                std::vector<RadioCount>(config.num_users,
                                        config.radios_per_user),
                {std::move(rate)}, radio_cost) {}

GameModel::GameModel(std::size_t num_channels,
                     std::vector<RadioCount> radio_budgets,
                     std::vector<std::shared_ptr<const RateFunction>> rates,
                     double radio_cost, std::vector<double> utility_weights,
                     std::shared_ptr<const Topology> topology)
    : config_(config_from_budgets(num_channels, radio_budgets)),
      budgets_(std::move(radio_budgets)),
      cost_(radio_cost),
      weights_(std::move(utility_weights)),
      topology_(std::move(topology)) {
  if (rates.size() != 1 && rates.size() != num_channels) {
    throw std::invalid_argument(
        "GameModel: need one shared rate function or one per channel");
  }
  if (!std::isfinite(cost_) || cost_ < 0.0) {
    throw std::invalid_argument("GameModel: cost must be finite and >= 0");
  }
  if (!weights_.empty()) {
    if (weights_.size() != budgets_.size()) {
      throw std::invalid_argument(
          "GameModel: need one utility weight per user (or none)");
    }
    bool all_unit = true;
    for (const double weight : weights_) {
      // Bounded range: weights are valuation multipliers on reported
      // utilities/welfare; values orders of magnitude from unity are unit
      // mistakes that would drown the unweighted columns' precision in
      // mixed aggregates. Four orders each way covers any realistic
      // priority ladder. (Decision surfaces are weight-free, so this is a
      // reporting-sanity bound, not a tolerance-safety one.)
      if (!std::isfinite(weight) || weight < 1e-4 || weight > 1e4) {
        throw std::invalid_argument(
            "GameModel: utility weights must be in [1e-4, 1e4]");
      }
      all_unit &= weight == 1.0;
    }
    // Normalize: an all-ones vector IS the unweighted game; dropping it
    // keeps weighted() an exact "behaves differently" predicate and the
    // unweighted hot paths branch-free.
    if (all_unit) weights_.clear();
  }
  if (topology_) {
    if (topology_->num_users() != budgets_.size()) {
      throw std::invalid_argument(
          "GameModel: topology covers " +
          std::to_string(topology_->num_users()) + " user(s), game has " +
          std::to_string(budgets_.size()));
    }
    // Normalize: the complete graph IS the single collision domain (every
    // closed neighborhood is the whole user set), so dropping it — like the
    // all-ones weight vector above — keeps topology() an exact "loads are
    // neighborhood-local" predicate and `topology=complete` cells
    // bit-identical to base cells by construction.
    if (topology_->is_complete()) topology_.reset();
  }
  total_radios_ = total_radio_budget(budgets_);
  uniform_budgets_ = std::all_of(
      budgets_.begin(), budgets_.end(),
      [&](RadioCount budget) { return budget == budgets_.front(); });
  // Under a topology no user perceives more than its closed neighborhood's
  // radios, at most k_max * (max_degree + 1); loads past the table (the
  // global column sums per_radio_spread reads) fall back to the live rate
  // function, bit-identically.
  RadioCount table_load = total_radios_;
  if (topology_) {
    const std::int64_t reachable =
        std::int64_t{config_.radios_per_user} *
        static_cast<std::int64_t>(topology_->max_degree() + 1);
    table_load = static_cast<RadioCount>(
        std::min<std::int64_t>(total_radios_, reachable));
  }
  rates_ = std::move(rates);
  tables_.reserve(rates_.size());
  for (const auto& rate : rates_) {
    if (!rate) {
      throw std::invalid_argument("GameModel: null rate function");
    }
    rate->validate_non_increasing(total_radios_);
    tables_.emplace_back(*rate, table_load);
  }
}

RadioCount total_radio_budget(std::span<const RadioCount> budgets) {
  std::int64_t total = 0;
  for (const RadioCount budget : budgets) total += budget;
  return checked_radio_total(total);
}

void GameModel::check_user(UserId user) const {
  if (user >= budgets_.size()) {
    throw std::out_of_range("GameModel: user out of range");
  }
}

RadioCount GameModel::budget(UserId user) const {
  check_user(user);
  return budgets_[user];
}

const RateFunction& GameModel::rate_function(ChannelId channel) const {
  if (channel >= config_.num_channels) {
    throw std::out_of_range("GameModel: channel out of range");
  }
  return *rates_[table_index(channel)];
}

void GameModel::check_matrix(const StrategyMatrix& strategies) const {
  if (!(strategies.config() == config_)) {
    throw std::invalid_argument(
        "GameModel: strategy matrix belongs to a different game");
  }
}

void GameModel::check_user_budget(const StrategyMatrix& strategies,
                                  UserId user) const {
  if (strategies.user_total(user) > budgets_[user]) {
    throw std::invalid_argument(
        "GameModel: user " + std::to_string(user) + " deploys " +
        std::to_string(strategies.user_total(user)) + " > budget " +
        std::to_string(budgets_[user]));
  }
}

void GameModel::check_utilities(std::span<const double> utilities) const {
  if (utilities.size() != config_.num_users) {
    throw std::invalid_argument(
        "GameModel: need one utility per user, got " +
        std::to_string(utilities.size()));
  }
}

void GameModel::validate(const StrategyMatrix& strategies) const {
  check_matrix(strategies);
  for (UserId i = 0; i < budgets_.size(); ++i) {
    check_user_budget(strategies, i);
  }
}

RadioCount GameModel::perceived_load_unchecked(const StrategyMatrix& strategies,
                                               UserId user,
                                               ChannelId channel) const {
  RadioCount load = strategies.at(user, channel);
  for (const UserId j : topology_->neighbors(user)) {
    load += strategies.at(j, channel);
  }
  return load;
}

RadioCount GameModel::perceived_load(const StrategyMatrix& strategies,
                                     UserId user, ChannelId channel) const {
  check_matrix(strategies);
  check_user(user);
  if (channel >= config_.num_channels) {
    throw std::out_of_range("GameModel: channel out of range");
  }
  if (!topology_) return strategies.channel_load(channel);
  return perceived_load_unchecked(strategies, user, channel);
}

double GameModel::raw_utility_unchecked(const StrategyMatrix& strategies,
                                        UserId user) const {
  if (topology_) {
    return detail::raw_utility(
        strategies, user, ModelRate{this}, cost_, [&](ChannelId c) {
          return perceived_load_unchecked(strategies, user, c);
        });
  }
  const auto loads = strategies.channel_loads();
  return detail::raw_utility(strategies, user, ModelRate{this}, cost_,
                             [loads](ChannelId c) { return loads[c]; });
}

double GameModel::raw_utility(const StrategyMatrix& strategies,
                              UserId user) const {
  check_matrix(strategies);
  check_user(user);
  check_user_budget(strategies, user);
  return raw_utility_unchecked(strategies, user);
}

double GameModel::utility(const StrategyMatrix& strategies,
                          UserId user) const {
  check_matrix(strategies);
  check_user(user);
  check_user_budget(strategies, user);
  return utility_weight(user) * raw_utility_unchecked(strategies, user);
}

std::vector<double> GameModel::raw_utilities_unchecked(
    const StrategyMatrix& strategies) const {
  std::vector<double> result(config_.num_users);
  if (!topology_) {
    for (UserId i = 0; i < config_.num_users; ++i) {
      result[i] = raw_utility_unchecked(strategies, i);
    }
    return result;
  }
  // Rather than raw_utility_unchecked's point read per (neighbor, channel),
  // each closed neighborhood's rows are scattered into one reused
  // per-channel load buffer, zeroed again once the user is priced. Loads
  // are integer sums, so every perceived load — and every utility — is
  // exactly raw_utility_unchecked's.
  std::vector<RadioCount> load(config_.num_channels, 0);
  for (UserId i = 0; i < config_.num_users; ++i) {
    const auto for_each_neighborhood_entry = [&](auto&& fn) {
      strategies.for_each_row_entry(i, fn);
      for (const UserId j : topology_->neighbors(i)) {
        strategies.for_each_row_entry(j, fn);
      }
    };
    for_each_neighborhood_entry(
        [&](ChannelId c, RadioCount count) { load[c] += count; });
    result[i] = detail::raw_utility(strategies, i, ModelRate{this}, cost_,
                                    [&](ChannelId c) { return load[c]; });
    for_each_neighborhood_entry([&](ChannelId c, RadioCount) { load[c] = 0; });
  }
  return result;
}

std::vector<double> GameModel::utilities(
    const StrategyMatrix& strategies) const {
  validate(strategies);
  std::vector<double> result = raw_utilities_unchecked(strategies);
  if (!weights_.empty()) {
    for (UserId i = 0; i < config_.num_users; ++i) result[i] *= weights_[i];
  }
  return result;
}

double GameModel::welfare(const StrategyMatrix& strategies,
                          std::span<const double> utilities) const {
  check_utilities(utilities);
  if (weights_.empty() && !topology_) return raw_welfare(strategies);
  // Weighted welfare is sum_i w_i * U_i; the per-channel shortcut of
  // raw_welfare only holds when every weight is 1. Under a topology the
  // shortcut breaks differently: shares are taken of DIFFERENT perceived
  // loads, so welfare is only expressible as the sum of utilities.
  double total = 0.0;
  for (const double utility : utilities) total += utility;
  return total;
}

double GameModel::welfare(const StrategyMatrix& strategies) const {
  // The per-channel shortcut reads no utilities; don't build them for it.
  if (weights_.empty() && !topology_) return raw_welfare(strategies);
  return welfare(strategies, utilities(strategies));
}

double GameModel::raw_welfare(const StrategyMatrix& strategies) const {
  validate(strategies);
  if (topology_) {
    double total = 0.0;
    for (const double raw : raw_utilities_unchecked(strategies)) total += raw;
    return total;
  }
  double total = 0.0;
  const auto loads = strategies.channel_loads();
  for (ChannelId c = 0; c < config_.num_channels; ++c) {
    if (loads[c] > 0) total += rate(c, loads[c]);
  }
  return total - cost_ * static_cast<double>(strategies.total_deployed());
}

double GameModel::optimal_welfare() const {
  // The closed forms below reason about one global load per channel; under
  // an interference graph the optimum additionally exploits spatial reuse
  // and has no closed form. Abstain with NaN — coloring_bound() is the
  // graph-aware achievable reference.
  if (topology_) return std::numeric_limits<double>::quiet_NaN();
  // One radio per occupied channel is always optimal for non-increasing
  // R_c: extra radios on a channel never raise its total rate but always
  // pay the energy price. So the optimum picks the best single-occupancy
  // channels, skipping any that cannot cover their own cost.
  std::vector<double> singles;
  singles.reserve(config_.num_channels);
  for (ChannelId c = 0; c < config_.num_channels; ++c) {
    singles.push_back(rate(c, 1));
  }
  std::sort(singles.begin(), singles.end(), std::greater<>());
  if (!weights_.empty()) {
    // Weighted optimum. While radios fit one-per-channel, spreading still
    // dominates sharing ((w1+w2)R(2)/2 <= w1 R(1) + w2 R'(1) for
    // non-increasing R), and the rearrangement inequality pairs the
    // heaviest radios with the best channels. Beyond that regime the
    // weighted optimum trades channel quality against weight mixing and has
    // no closed form: report NaN rather than a wrong bound.
    if (static_cast<std::size_t>(total_radios_) > config_.num_channels) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<double> radio_weights;
    radio_weights.reserve(static_cast<std::size_t>(total_radios_));
    for (UserId i = 0; i < config_.num_users; ++i) {
      radio_weights.insert(radio_weights.end(),
                           static_cast<std::size_t>(budgets_[i]),
                           weights_[i]);
    }
    std::sort(radio_weights.begin(), radio_weights.end(), std::greater<>());
    double total = 0.0;
    for (std::size_t r = 0; r < radio_weights.size(); ++r) {
      total += std::max(radio_weights[r] * (singles[r] - cost_), 0.0);
    }
    return total;
  }
  const auto occupiable = std::min<std::size_t>(
      config_.num_channels, static_cast<std::size_t>(total_radios_));
  double total = 0.0;
  for (std::size_t c = 0; c < occupiable; ++c) {
    total += std::max(singles[c] - cost_, 0.0);
  }
  return total;
}

double GameModel::coloring_bound() const {
  if (!topology_) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t chi = topology_->num_colors();
  const std::size_t channels = config_.num_channels;
  double total = 0.0;
  for (UserId i = 0; i < config_.num_users; ++i) {
    // Color class g owns the contiguous channel block [g*C/chi, (g+1)*C/chi).
    // Same-color users are pairwise non-adjacent, so they reuse the block's
    // channels at perceived load 1; adjacent users wear different colors and
    // never share a channel.
    const std::size_t g = topology_->color(i);
    const std::size_t lo = g * channels / chi;
    const std::size_t hi = (g + 1) * channels / chi;
    const auto budget = static_cast<std::size_t>(budgets_[i]);
    if (budget > hi - lo) {
      // The construction can't place this user's radios on distinct block
      // channels; the bound doesn't apply. Honest unknown, not a guess.
      return std::numeric_limits<double>::quiet_NaN();
    }
    // Best `budget` channels of the block by single-occupancy rate, ties
    // toward the lower channel id (deterministic; the sum is tie-invariant).
    std::vector<std::pair<double, ChannelId>> scored;
    scored.reserve(hi - lo);
    for (ChannelId c = lo; c < hi; ++c) {
      scored.emplace_back(rate(c, 1), c);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    double user_total = 0.0;
    for (std::size_t r = 0; r < budget; ++r) {
      // A channel that can't pay its energy price is better left idle.
      user_total += std::max(scored[r].first - cost_, 0.0);
    }
    total += utility_weight(i) * user_total;
  }
  return total;
}

// The decision surfaces below are deliberately weight-free: a positive
// weight scales every option of a user equally, so argmaxes, improving-move
// predicates and equilibrium verdicts are identical to the base game's —
// computing them in raw units keeps that invariance EXACT (no tolerance
// rescaling, no floating-point drift between weighted and unweighted
// cells). Utilities/benefits they return are raw too; apply
// utility_weight() for valuation.

// Under a topology the same shared scanners run with the mover's perceived
// load substituted for the global column sum — deviation_detail.h's LoadAt
// seam. with_load_view takes the topology branch once per call, outside the
// kernels, so the single-domain arm reads the column sums directly.

template <typename Scan>
auto GameModel::with_load_view(const StrategyMatrix& strategies, UserId user,
                               Scan scan) const {
  if (topology_) {
    return scan([&](ChannelId c) {
      return perceived_load_unchecked(strategies, user, c);
    });
  }
  return scan([&](ChannelId c) { return strategies.channel_load(c); });
}

BestResponse GameModel::best_response(const StrategyMatrix& strategies,
                                      UserId user) const {
  check_matrix(strategies);
  check_user(user);
  detail::ScanBuffers buffers;
  return best_response_unchecked(strategies, user, buffers);
}

BestResponse GameModel::best_response_unchecked(
    const StrategyMatrix& strategies, UserId user,
    detail::ScanBuffers& buffers) const {
  const auto budget = static_cast<std::size_t>(budgets_[user]);
  return with_load_view(strategies, user, [&](auto load_at) {
    return detail::best_response(strategies, user, budget, ModelRate{this},
                                 cost_, load_at, buffers);
  });
}

std::optional<SingleChange> GameModel::best_single_change(
    const StrategyMatrix& strategies, UserId user, double tolerance) const {
  detail::ScanBuffers buffers;
  return best_single_change(strategies, user, tolerance, buffers);
}

std::optional<SingleChange> GameModel::best_single_change(
    const StrategyMatrix& strategies, UserId user, double tolerance,
    detail::ScanBuffers& buffers) const {
  check_matrix(strategies);
  check_user(user);
  const bool has_spare = strategies.user_total(user) < budgets_[user];
  return with_load_view(strategies, user, [&](auto load_at) {
    return detail::best_single_change(strategies, user, tolerance,
                                      ModelRate{this}, cost_, has_spare,
                                      load_at, nullptr, buffers);
  });
}

std::vector<SingleChange> GameModel::improving_changes_for_user(
    const StrategyMatrix& strategies, UserId user, double tolerance) const {
  check_matrix(strategies);
  check_user(user);
  detail::ScanBuffers buffers;
  const bool has_spare = strategies.user_total(user) < budgets_[user];
  return with_load_view(strategies, user, [&](auto load_at) {
    return detail::improving_changes(strategies, user, tolerance,
                                     ModelRate{this}, cost_, has_spare,
                                     load_at, nullptr, buffers);
  });
}

bool GameModel::is_nash_equilibrium(const StrategyMatrix& strategies,
                                    double tolerance) const {
  validate(strategies);
  detail::ScanBuffers buffers;
  for (UserId user = 0; user < config_.num_users; ++user) {
    const double current = raw_utility_unchecked(strategies, user);
    if (best_response_unchecked(strategies, user, buffers).utility >
        current + tolerance) {
      return false;
    }
  }
  return true;
}

double GameModel::per_radio_spread(const StrategyMatrix& strategies) const {
  validate(strategies);
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  const auto loads = strategies.channel_loads();
  for (ChannelId c = 0; c < config_.num_channels; ++c) {
    if (loads[c] == 0) continue;
    const double value =
        rate(c, loads[c]) / static_cast<double>(loads[c]);
    if (first) {
      lo = value;
      hi = value;
      first = false;
    } else {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
  }
  return hi - lo;
}

double GameModel::budget_fairness(std::span<const double> utilities) const {
  check_utilities(utilities);
  std::vector<double> normalized;
  normalized.reserve(config_.num_users);
  for (UserId i = 0; i < config_.num_users; ++i) {
    if (budgets_[i] == 0) continue;
    normalized.push_back(utilities[i] / static_cast<double>(budgets_[i]));
  }
  return jain_fairness(normalized);
}

double GameModel::budget_fairness(const StrategyMatrix& strategies) const {
  return budget_fairness(utilities(strategies));
}

}  // namespace mrca
