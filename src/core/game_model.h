// The unified game model behind every scenario the library studies.
//
// The paper's base game and its §2 relaxations differ along exactly three
// axes, all of which compose:
//   - per-channel rate functions R_c(k)   (heterogeneous bands),
//   - per-user radio budgets k_i          (mixed clients / routers),
//   - a per-radio energy price            (energy-aware utilities).
// GameModel is the closed-form product of those axes:
//
//   U_i(S) = w_i * [ sum_c (k_{i,c} / k_c) * R_c(k_c)  -  cost * k_i ],
//
// with k_i <= budget_i <= |C| and an optional per-user utility weight w_i
// (priority classes: how much the operator values user i's throughput).
// Setting all budgets equal, all R_c equal, cost = 0 and every w_i = 1
// recovers the paper's game bit-for-bit (rates are tabulated via
// RateTable, whose lookups are bit-identical to the live RateFunction).
// Weights scale every option of a user by the same positive factor, so the
// best-response argmax — and hence the set of equilibria — is unchanged;
// what weights move is the VALUATION layer (utilities, welfare, fairness,
// the system optimum), which is exactly what a priority-class study sweeps.
//
// Everything the response-dynamics hot path needs lives here once: exact
// DP best response, single-radio deviation scans, welfare and the system
// optimum. It is the library's only game type: the paper's game is
// GameModel(config, rate); heterogeneous bands, mixed radio budgets, energy
// prices, priority weights and interference graphs are constructor
// arguments, so a new scenario is a constructor call, not a class.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/rate_table.h"
#include "core/strategy.h"
#include "core/topology.h"
#include "core/types.h"

namespace mrca {

namespace detail {
struct ScanBuffers;
}  // namespace detail

class GameModel {
 public:
  /// Uniform budgets and a single shared rate function — the paper's game,
  /// U_i(S) = sum_c (k_{i,c}/k_c) * R(k_c) — with an optional energy price
  /// per deployed radio.
  GameModel(GameConfig config, std::shared_ptr<const RateFunction> rate,
            double radio_cost = 0.0);

  /// Fully general model. `rates` holds either ONE function (shared by all
  /// channels) or one per channel; `radio_budgets[i]` is user i's radio
  /// count, each in [0, num_channels] with at least one positive.
  /// `radio_cost` must be finite and >= 0.
  /// `utility_weights` is empty (all users weigh 1) or one weight per
  /// user, each finite and in [1e-4, 1e4] (bounded so weighted benefit
  /// comparisons keep noise headroom against kUtilityTolerance); an
  /// all-ones vector is normalized away so weighted() is false exactly
  /// when the model behaves like the unweighted game. `topology` is the
  /// interference graph (null = single collision domain); a complete graph
  /// is normalized away — exactly like all-ones weights — so topology() is
  /// non-null exactly when loads are neighborhood-local.
  GameModel(std::size_t num_channels, std::vector<RadioCount> radio_budgets,
            std::vector<std::shared_ptr<const RateFunction>> rates,
            double radio_cost = 0.0, std::vector<double> utility_weights = {},
            std::shared_ptr<const Topology> topology = nullptr);

  /// Shape of compatible strategy matrices; the per-user cap is the LARGEST
  /// budget — `validate` enforces the individual budgets on top.
  const GameConfig& config() const noexcept { return config_; }
  std::size_t num_users() const noexcept { return config_.num_users; }
  std::size_t num_channels() const noexcept { return config_.num_channels; }

  RadioCount budget(UserId user) const;
  /// Sum of all budgets: the largest load any channel can carry.
  RadioCount total_radios() const noexcept { return total_radios_; }
  bool uniform_budgets() const noexcept { return uniform_budgets_; }

  double radio_cost() const noexcept { return cost_; }

  /// True when any utility weight differs from 1. Weights are a VALUATION
  /// overlay: utility()/utilities()/welfare()/optimal_welfare()/
  /// budget_fairness() report operator-weighted units, while every
  /// decision surface — best_response, the single-change scans,
  /// is_nash_equilibrium, and the dynamics built on them — works in raw
  /// (unweighted) units. That makes the invariance EXACT: a weighted
  /// model's trajectories, equilibria and tolerance semantics are
  /// bit-identical to the base game's, weights only change what the
  /// outcome is worth.
  bool weighted() const noexcept { return !weights_.empty(); }
  double utility_weight(UserId user) const {
    return weights_.empty() ? 1.0 : weights_[user];
  }

  /// The interference graph, or null for the single collision domain (the
  /// paper's game; complete graphs are normalized to null at construction,
  /// so null is an exact "loads are global" predicate).
  const std::shared_ptr<const Topology>& topology() const noexcept {
    return topology_;
  }

  /// The load `user` experiences on `channel`: the global column sum for
  /// the single collision domain, or the closed-neighborhood sum
  /// k_{user,c} + sum_{j ~ user} k_{j,c} under a topology. This is the
  /// LoadView every decision surface and utility reads — substituting it
  /// for the global sum is the entire topology generalization, because
  /// moving one's own radio shifts it by exactly +/-1 either way.
  RadioCount perceived_load(const StrategyMatrix& strategies, UserId user,
                            ChannelId channel) const;

  /// Achievable-welfare reference under a topology via spatial reuse: the
  /// DSATUR coloring partitions |C| channels into chi contiguous blocks;
  /// color class g deploys one radio per channel on its best budget_i
  /// channels of block g (proper coloring => perceived load 1 everywhere),
  /// earning sum max(R_c(1) - cost, 0) weighted by w_i. NaN when no
  /// topology is set, or when some user's budget exceeds its block (the
  /// construction doesn't apply — honest unknown, not a wrong bound).
  /// Because neighbors reuse disjoint blocks while non-neighbors reuse the
  /// SAME channels, this can exceed the single-domain optimal_welfare().
  double coloring_bound() const;

  /// The user's own throughput-minus-energy utility WITHOUT the valuation
  /// weight — what selfish play responds to. Equals utility() for
  /// unweighted models.
  double raw_utility(const StrategyMatrix& strategies, UserId user) const;
  /// Load-only welfare sum_c R_c(k_c) - cost * deployed, weight-free —
  /// the quantity the incremental cache tracks and the dynamics trace
  /// records. Equals welfare() for unweighted models.
  double raw_welfare(const StrategyMatrix& strategies) const;

  bool uniform_rates() const noexcept { return rates_.size() == 1; }
  const RateFunction& rate_function(ChannelId channel) const;

  /// R_c(load) / per-radio share, memoized — bit-identical to the live
  /// rate function at every load. The tables cover every load a user can
  /// perceive (total_radios(), or k_max * (max_degree + 1) under a
  /// topology); larger loads are evaluated live.
  double rate(ChannelId channel, RadioCount load) const {
    return tables_[table_index(channel)].rate(load);
  }
  double per_radio(ChannelId channel, RadioCount load) const {
    return tables_[table_index(channel)].per_radio(load);
  }

  StrategyMatrix empty_strategy() const { return StrategyMatrix(config_); }

  /// Shape check plus per-user budget enforcement (the matrix cap alone
  /// only bounds users by the largest budget). Throws std::invalid_argument.
  void validate(const StrategyMatrix& strategies) const;

  double utility(const StrategyMatrix& strategies, UserId user) const;
  /// Every user's utility() in one pass (user-ascending, bit-identical to
  /// the per-user calls). Under a topology each closed neighborhood's rows
  /// are summed into one reused per-channel load buffer.
  std::vector<double> utilities(const StrategyMatrix& strategies) const;
  /// sum_c R_c(k_c) over occupied channels minus cost * total deployed;
  /// weighted or topology models sum the utilities in user order instead.
  /// `utilities` must be utilities(strategies): callers that already hold
  /// the vector pass it rather than have it recomputed.
  double welfare(const StrategyMatrix& strategies,
                 std::span<const double> utilities) const;
  double welfare(const StrategyMatrix& strategies) const;

  /// The system optimum over all budget-feasible matrices: occupy the
  /// min(|C|, total_radios) channels with the largest R_c(1), counting each
  /// only when R_c(1) - cost > 0 (a channel that cannot pay its energy
  /// price is better left idle). Weighted models pair the highest-weight
  /// radios with the best channels (rearrangement bound, exact while radios
  /// fit one-per-channel); when weighted radios must share channels the
  /// weighted optimum has no closed form and this returns NaN — an honest
  /// "unknown" the aggregation layer skips, never a formula applied out of
  /// its regime.
  double optimal_welfare() const;

  /// Exact best response of `user` under their own budget: DP over
  /// channels x budget with the energy price folded into each channel's
  /// gain. An oracle — no concavity assumption.
  BestResponse best_response(const StrategyMatrix& strategies,
                             UserId user) const;

  /// Best strictly-improving single-radio change (move / deploy / park)
  /// for `user`, if any exists with benefit > tolerance.
  std::optional<SingleChange> best_single_change(
      const StrategyMatrix& strategies, UserId user,
      double tolerance = kUtilityTolerance) const;
  /// As above, the scan's scratch in `buffers`: callers that scan many
  /// users reuse one set instead of allocating one per call.
  std::optional<SingleChange> best_single_change(
      const StrategyMatrix& strategies, UserId user, double tolerance,
      detail::ScanBuffers& buffers) const;

  /// All strictly-improving single-radio changes of ONE user.
  std::vector<SingleChange> improving_changes_for_user(
      const StrategyMatrix& strategies, UserId user,
      double tolerance = kUtilityTolerance) const;

  /// True when no user can improve by more than `tolerance` with ANY
  /// unilateral deviation (multi-radio included, via the DP oracle).
  bool is_nash_equilibrium(const StrategyMatrix& strategies,
                           double tolerance = kUtilityTolerance) const;

  /// Water-filling diagnostic: (max - min) over occupied channels of the
  /// per-radio rate R_c(k_c)/k_c. Zero at a perfectly equalized allocation.
  double per_radio_spread(const StrategyMatrix& strategies) const;

  /// Jain fairness over budget-normalized utilities U_i / budget_i (users
  /// with zero budget are excluded): 1.0 when the spectrum share each user
  /// obtains is exactly proportional to the radios they own. `utilities`
  /// is utilities() of the allocation being scored.
  double budget_fairness(std::span<const double> utilities) const;
  double budget_fairness(const StrategyMatrix& strategies) const;

 private:
  std::size_t table_index(ChannelId channel) const noexcept {
    return rates_.size() == 1 ? 0 : channel;
  }
  void check_user(UserId user) const;
  /// O(1) shape check (the hot-path subset of `validate`).
  void check_matrix(const StrategyMatrix& strategies) const;
  /// O(1) budget check for ONE user (the per-activation subset).
  void check_user_budget(const StrategyMatrix& strategies, UserId user) const;
  /// best_response without the checks, its DP tables in `buffers`.
  BestResponse best_response_unchecked(const StrategyMatrix& strategies,
                                       UserId user,
                                       detail::ScanBuffers& buffers) const;
  /// scan(load_at), load_at(c) being the load `user` sees on channel c:
  /// the closed-neighborhood sum under a topology, else the column sum.
  template <typename Scan>
  auto with_load_view(const StrategyMatrix& strategies, UserId user,
                      Scan scan) const;
  /// raw_utility without the shape and budget checks.
  double raw_utility_unchecked(const StrategyMatrix& strategies,
                               UserId user) const;
  /// Closed-neighborhood load; requires topology_ set. O(degree).
  RadioCount perceived_load_unchecked(const StrategyMatrix& strategies,
                                      UserId user, ChannelId channel) const;
  /// Every user's raw_utility_unchecked, user-ascending, in one pass.
  std::vector<double> raw_utilities_unchecked(
      const StrategyMatrix& strategies) const;
  /// Throws unless `utilities` has one entry per user.
  void check_utilities(std::span<const double> utilities) const;

  GameConfig config_;
  std::vector<RadioCount> budgets_;
  RadioCount total_radios_ = 0;
  bool uniform_budgets_ = true;
  double cost_ = 0.0;
  std::vector<double> weights_;  ///< empty = every user weighs 1
  std::vector<std::shared_ptr<const RateFunction>> rates_;  // size 1 or |C|
  std::vector<RateTable> tables_;                           // parallel to rates_
  std::shared_ptr<const Topology> topology_;  ///< null = single domain
};

/// Sum of `budgets` (the largest load any channel can carry). Summed in 64
/// bits; throws std::invalid_argument naming the total when it exceeds
/// RadioCount's range, which would otherwise wrap and size the rate tables
/// from a garbage bound.
RadioCount total_radio_budget(std::span<const RadioCount> budgets);

}  // namespace mrca
