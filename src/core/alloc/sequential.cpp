#include "core/alloc/sequential.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/alloc/utility_cache.h"

namespace mrca {
namespace {

ChannelId pick(const std::vector<ChannelId>& candidates, TieBreak tie_break,
               Rng* rng) {
  if (candidates.empty()) {
    throw std::logic_error("sequential allocator: no candidate channel");
  }
  switch (tie_break) {
    case TieBreak::kLowestIndex:
      return candidates.front();
    case TieBreak::kRandom:
      if (rng == nullptr) {
        throw std::invalid_argument(
            "sequential allocator: TieBreak::kRandom requires an Rng");
      }
      return candidates[rng->index(candidates.size())];
  }
  throw std::logic_error("sequential allocator: unknown tie break");
}

/// The Algorithm 1 placement rule: it reads only the matrix, so one
/// implementation serves every scenario axis.
ChannelId place_one_radio_rule(StrategyMatrix& strategies, UserId user,
                               TieBreak tie_break, Rng* rng,
                               UtilityCache* cache) {
  const std::size_t channels = strategies.num_channels();
  const RadioCount min_load = strategies.min_load();
  const RadioCount max_load = strategies.max_load();

  std::vector<ChannelId> candidates;
  if (min_load == max_load) {
    // Line 3-4: all loads equal -> use a channel where the user has no
    // radio yet. (Such a channel always exists while the user is placing
    // radio j <= k <= |C|, but guard anyway for incremental use.)
    for (ChannelId c = 0; c < channels; ++c) {
      if (strategies.at(user, c) == 0) candidates.push_back(c);
    }
    if (candidates.empty()) {
      // Degenerate incremental case: the user already covers every channel;
      // fall back to the least-loaded rule.
      for (ChannelId c = 0; c < channels; ++c) candidates.push_back(c);
    }
  } else {
    // Line 5-6: use a channel with minimal load. Among tied minima, prefer
    // channels the user does not occupy yet (keeps the outcome inside
    // Theorem 1's k_{i,c} <= 1 regime whenever possible).
    std::vector<ChannelId> unused_minima;
    for (ChannelId c = 0; c < channels; ++c) {
      if (strategies.channel_load(c) != min_load) continue;
      candidates.push_back(c);
      if (strategies.at(user, c) == 0) unused_minima.push_back(c);
    }
    if (!unused_minima.empty()) candidates = std::move(unused_minima);
  }

  const ChannelId chosen = pick(candidates, tie_break, rng);
  if (cache) {
    cache->add_radio(strategies, user, chosen);
  } else {
    strategies.add_radio(user, chosen);
  }
  return chosen;
}

/// Greedy marginal placement: the channel where one more of `user`'s radios
/// gains the largest utility share (ties to the lowest index / the rng,
/// like every other placement decision) — the greedy start for
/// heterogeneous bands, on the shared driver for every model.
ChannelId place_one_radio_marginal(const GameModel& model,
                                   StrategyMatrix& strategies, UserId user,
                                   TieBreak tie_break, Rng* rng,
                                   UtilityCache* cache) {
  const std::size_t channels = strategies.num_channels();
  std::vector<ChannelId> candidates;
  double best_marginal = -1.0;
  for (ChannelId c = 0; c < channels; ++c) {
    const RadioCount load = strategies.channel_load(c) + 1;
    const RadioCount own = strategies.at(user, c) + 1;
    const double after = static_cast<double>(own) /
                         static_cast<double>(load) * model.rate(c, load);
    const double before =
        strategies.at(user, c) > 0
            ? static_cast<double>(strategies.at(user, c)) /
                  static_cast<double>(strategies.channel_load(c)) *
                  model.rate(c, strategies.channel_load(c))
            : 0.0;
    const double marginal = after - before;
    if (marginal > best_marginal) {
      best_marginal = marginal;
      candidates.assign(1, c);
    } else if (marginal == best_marginal) {
      candidates.push_back(c);
    }
  }
  const ChannelId chosen = pick(candidates, tie_break, rng);
  if (cache) {
    cache->add_radio(strategies, user, chosen);
  } else {
    strategies.add_radio(user, chosen);
  }
  return chosen;
}

/// Checks `order` is a permutation of all users; fills natural order if
/// empty.
std::vector<UserId> resolve_user_order(std::size_t num_users,
                                       const SequentialOptions& options) {
  std::vector<UserId> order = options.user_order;
  if (order.empty()) {
    order.resize(num_users);
    for (UserId i = 0; i < order.size(); ++i) order[i] = i;
  }
  if (order.size() != num_users) {
    throw std::invalid_argument(
        "sequential_allocation: user_order must list every user exactly once");
  }
  std::vector<bool> seen(num_users, false);
  for (const UserId user : order) {
    if (user >= seen.size() || seen[user]) {
      throw std::invalid_argument(
          "sequential_allocation: user_order must be a permutation");
    }
    seen[user] = true;
  }
  return order;
}

}  // namespace

ChannelId place_one_radio(const GameModel& model, StrategyMatrix& strategies,
                          UserId user, TieBreak tie_break, Rng* rng,
                          UtilityCache* cache, PlacementRule placement) {
  model.validate(strategies);
  // The matrix alone only caps users at the LARGEST budget; enforce this
  // user's own budget here, before the radio lands, not at the next
  // validate() far from the cause.
  if (strategies.user_total(user) >= model.budget(user)) {
    throw std::logic_error(
        "place_one_radio: user " + std::to_string(user) +
        " already deploys their full budget of " +
        std::to_string(model.budget(user)));
  }
  switch (placement) {
    case PlacementRule::kLeastLoaded:
      return place_one_radio_rule(strategies, user, tie_break, rng, cache);
    case PlacementRule::kBestMarginal:
      return place_one_radio_marginal(model, strategies, user, tie_break, rng,
                                      cache);
  }
  throw std::logic_error("place_one_radio: unknown placement rule");
}

void allocate_user_sequentially(const GameModel& model,
                                StrategyMatrix& strategies, UserId user,
                                TieBreak tie_break, Rng* rng,
                                UtilityCache* cache, PlacementRule placement) {
  model.validate(strategies);
  if (strategies.user_total(user) != 0) {
    throw std::logic_error(
        "allocate_user_sequentially: user already has radios deployed");
  }
  const RadioCount k = model.budget(user);
  for (RadioCount j = 0; j < k; ++j) {
    switch (placement) {
      case PlacementRule::kLeastLoaded:
        place_one_radio_rule(strategies, user, tie_break, rng, cache);
        break;
      case PlacementRule::kBestMarginal:
        place_one_radio_marginal(model, strategies, user, tie_break, rng,
                                 cache);
        break;
    }
  }
}

StrategyMatrix sequential_allocation(const GameModel& model,
                                     const SequentialOptions& options,
                                     Rng* rng) {
  StrategyMatrix strategies = model.empty_strategy();
  const std::vector<UserId> order =
      resolve_user_order(model.config().num_users, options);
  for (const UserId user : order) {
    allocate_user_sequentially(model, strategies, user, options.tie_break,
                               rng, /*cache=*/nullptr, options.placement);
  }
  return strategies;
}

}  // namespace mrca
