// Full-recompute reference drivers for the dynamics engines.
//
// Each driver walks the same activation order and draws the same Rng
// values as its production engine, but makes every decision through the
// model's checked members on a plain StrategyMatrix: utilities, welfare,
// deviation scans and best responses are recomputed from the matrix each
// time. No UtilityCache, no scan pruning, no shared scratch buffers — so a
// cached engine that agrees with its reference has its whole incremental
// machinery checked against an independent evaluation.
// reference_eps_ne_time is the one exception: the `convergence` metric's
// former replay loop, kept verbatim, cache and all.
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/utility_cache.h"
#include "core/analysis/deviation.h"
#include "core/analysis/nash.h"
#include "core/dynamics/engine.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca::testing {

inline void apply_change(StrategyMatrix& strategies,
                         const SingleChange& change) {
  switch (change.kind) {
    case SingleChange::Kind::kMove:
      strategies.move_radio(change.user, change.from, change.to);
      return;
    case SingleChange::Kind::kDeploy:
      strategies.add_radio(change.user, change.to);
      return;
    case SingleChange::Kind::kPark:
      strategies.remove_radio(change.user, change.from);
      return;
  }
}

/// One best-response activation, recomputed from the matrix.
inline bool reference_activate(const GameModel& model, StrategyMatrix& state,
                               UserId user, const DynamicsOptions& options,
                               Rng* rng) {
  switch (options.granularity) {
    case ResponseGranularity::kBestResponse: {
      const double current = model.raw_utility(state, user);
      const BestResponse response = model.best_response(state, user);
      if (response.utility <= current + options.tolerance) return false;
      state.set_row(user, response.strategy);
      return true;
    }
    case ResponseGranularity::kBestSingleMove: {
      const auto change =
          model.best_single_change(state, user, options.tolerance);
      if (!change) return false;
      apply_change(state, *change);
      return true;
    }
    case ResponseGranularity::kRandomImprovingMove: {
      const std::vector<SingleChange> improving =
          model.improving_changes_for_user(state, user, options.tolerance);
      if (improving.empty()) return false;
      apply_change(state, improving[rng->index(improving.size())]);
      return true;
    }
  }
  throw std::logic_error("reference_activate: unknown granularity");
}

/// Reference for run_response_dynamics: same order, streaks and
/// verification pass.
inline DynamicsResult reference_response_dynamics(
    const GameModel& model, const StrategyMatrix& start,
    const DynamicsOptions& options, Rng* rng) {
  const std::size_t users = model.num_users();
  DynamicsResult result{.final_state = start};
  StrategyMatrix& state = result.final_state;
  if (options.record_welfare_trace) {
    result.welfare_trace.push_back(model.raw_welfare(state));
  }
  const std::size_t budget = options.max_activations;
  std::size_t quiet_streak = 0;
  UserId next_user = 0;
  const auto improved = [&](UserId user) {
    ++result.activations;
    if (!reference_activate(model, state, user, options, rng)) return false;
    ++result.improving_steps;
    if (options.record_welfare_trace) {
      result.welfare_trace.push_back(model.raw_welfare(state));
    }
    return true;
  };
  while (result.activations < budget) {
    const UserId user = options.order == ActivationOrder::kRoundRobin
                            ? next_user
                            : static_cast<UserId>(rng->index(users));
    next_user = (next_user + 1) % users;
    if (improved(user)) {
      quiet_streak = 0;
      continue;
    }
    if (++quiet_streak < users) continue;
    bool any_improvement = false;
    if (options.order == ActivationOrder::kUniformRandom) {
      for (UserId verify = 0; verify < users && !any_improvement; ++verify) {
        any_improvement = improved(verify);
      }
    }
    if (!any_improvement) {
      result.converged = true;
      break;
    }
    quiet_streak = 0;
  }
  return result;
}

/// Reference for run_log_linear_dynamics. The full candidate menu is the
/// model's improving-change list at tolerance -inf (every single-radio
/// change, in the shared scan order).
inline DynamicsResult reference_log_linear_dynamics(
    const DynamicsSpec& spec, const GameModel& model,
    const StrategyMatrix& start, const DynamicsOptions& options, Rng& rng) {
  const std::size_t users = model.num_users();
  DynamicsResult result{.final_state = start};
  StrategyMatrix& state = result.final_state;
  if (options.record_welfare_trace) {
    result.welfare_trace.push_back(model.raw_welfare(state));
  }
  const std::size_t budget = options.max_activations;
  const double ratio = spec.temp_end / spec.temp_start;
  while (result.activations < budget) {
    if (result.activations % users == 0 &&
        is_single_move_stable(model, state, options.tolerance)) {
      result.converged = true;
      break;
    }
    const double temp =
        budget <= 1 || ratio == 1.0
            ? spec.temp_end
            : spec.temp_start *
                  std::pow(ratio, static_cast<double>(result.activations) /
                                      static_cast<double>(budget - 1));
    const auto user = static_cast<UserId>(rng.index(users));
    ++result.activations;
    const std::vector<SingleChange> candidates =
        model.improving_changes_for_user(
            state, user, -std::numeric_limits<double>::infinity());
    double best = 0.0;
    for (const SingleChange& change : candidates) {
      if (change.benefit > best) best = change.benefit;
    }
    const double stay_weight = std::exp(-best / temp);
    std::vector<double> weights;
    double total = stay_weight;
    for (const SingleChange& change : candidates) {
      weights.push_back(std::exp((change.benefit - best) / temp));
      total += weights.back();
    }
    double draw = rng.next_double() * total - stay_weight;
    if (draw < 0.0) continue;
    std::size_t chosen = candidates.size() - 1;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      draw -= weights[i];
      if (draw < 0.0) {
        chosen = i;
        break;
      }
    }
    apply_change(state, candidates[chosen]);
    ++result.improving_steps;
    if (options.record_welfare_trace) {
      result.welfare_trace.push_back(model.raw_welfare(state));
    }
  }
  return result;
}

/// Reference for run_trial_error_dynamics: the same count-only experiment
/// draw, judged by recomputed own utility.
inline DynamicsResult reference_trial_error_dynamics(
    const DynamicsSpec& spec, const GameModel& model,
    const StrategyMatrix& start, const DynamicsOptions& options, Rng& rng) {
  const std::size_t users = model.num_users();
  const std::size_t channels = model.num_channels();
  DynamicsResult result{.final_state = start};
  StrategyMatrix& state = result.final_state;
  if (options.record_welfare_trace) {
    result.welfare_trace.push_back(model.raw_welfare(state));
  }
  const std::size_t budget = options.max_activations;
  while (result.activations < budget) {
    if (result.activations % users == 0 &&
        is_single_move_stable(model, state, options.tolerance)) {
      result.converged = true;
      break;
    }
    const auto user = static_cast<UserId>(rng.index(users));
    ++result.activations;
    if (!rng.bernoulli(spec.exploration)) continue;
    std::vector<ChannelId> occupied;
    for (ChannelId c = 0; c < channels; ++c) {
      if (state.at(user, c) > 0) occupied.push_back(c);
    }
    const std::size_t deploys =
        state.user_total(user) < model.budget(user) ? channels : 0;
    const std::size_t total = deploys + occupied.size() * channels;
    if (total == 0) continue;
    const std::size_t pick = rng.index(total);
    SingleChange change;
    SingleChange undo;
    change.user = undo.user = user;
    if (pick < deploys) {
      change.kind = SingleChange::Kind::kDeploy;
      change.to = undo.from = static_cast<ChannelId>(pick);
      undo.kind = SingleChange::Kind::kPark;
    } else {
      const ChannelId source = occupied[(pick - deploys) / channels];
      const std::size_t option = (pick - deploys) % channels;
      change.from = source;
      if (option == 0) {
        change.kind = SingleChange::Kind::kPark;
        undo.kind = SingleChange::Kind::kDeploy;
        undo.to = source;
      } else {
        const std::size_t to = option - 1;
        change.kind = undo.kind = SingleChange::Kind::kMove;
        change.to = undo.from =
            static_cast<ChannelId>(to < source ? to : to + 1);
        undo.to = source;
      }
    }
    const double before = model.raw_utility(state, user);
    apply_change(state, change);
    if (model.raw_utility(state, user) > before + options.tolerance) {
      ++result.improving_steps;
      if (options.record_welfare_trace) {
        result.welfare_trace.push_back(model.raw_welfare(state));
      }
    } else {
      apply_change(state, undo);
    }
  }
  return result;
}

/// Reference for run_distributed_dynamics: the same rounds, activation
/// draws and commit order, with a fresh stateless check each round and
/// every plan scanned through the model's checked member.
inline DynamicsResult reference_distributed_dynamics(
    const DynamicsSpec& spec, const GameModel& model,
    const StrategyMatrix& start, const DynamicsOptions& options, Rng& rng) {
  DynamicsResult result{.final_state = start};
  StrategyMatrix& state = result.final_state;
  if (options.record_welfare_trace) {
    result.welfare_trace.push_back(model.raw_welfare(state));
  }
  while (result.activations < options.max_activations) {
    ++result.activations;
    if (is_single_move_stable(model, state, options.tolerance)) {
      result.converged = true;
      break;
    }
    std::vector<SingleChange> planned;
    for (UserId user = 0; user < model.num_users(); ++user) {
      if (!rng.bernoulli(spec.activation_probability)) continue;
      const auto change =
          model.best_single_change(state, user, options.tolerance);
      if (change) planned.push_back(*change);
    }
    for (const SingleChange& change : planned) {
      apply_change(state, change);
      ++result.improving_steps;
      if (options.record_welfare_trace) {
        result.welfare_trace.push_back(model.raw_welfare(state));
      }
    }
  }
  if (!result.converged) {
    result.converged = is_single_move_stable(model, state, options.tolerance);
  }
  return result;
}

/// Reference for the `convergence` metric's eps_ne_time: the hand-written
/// round-robin best-response replay from `start` that once defined the
/// metric, kept verbatim (its own loop, its own epsilon and budget
/// literals) so the metric's reading of the run's record is checked
/// against an independent copy of the play.
inline double reference_eps_ne_time(const GameModel& model,
                                    const StrategyMatrix& start) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kEpsilon = 1e-2;
  constexpr std::size_t kMaxActivations = 100000;
  const std::size_t users = model.num_users();
  StrategyMatrix state = start;
  UtilityCache cache(model, state);
  std::size_t activations = 0;
  std::size_t last_above_eps = 0;
  std::size_t quiet = 0;
  UserId user = 0;
  while (quiet < users) {
    if (activations >= kMaxActivations) {
      return kNaN;
    }
    ++activations;
    const BestResponse response = model.best_response(state, user);
    const double gain = response.utility - cache.utility(user);
    if (gain >= kEpsilon) last_above_eps = activations;
    if (gain > kUtilityTolerance) {
      cache.set_row(state, user, response.strategy);
      quiet = 0;
    } else {
      ++quiet;
    }
    user = (user + 1) % static_cast<UserId>(users);
  }
  return static_cast<double>(last_above_eps);
}

}  // namespace mrca::testing
