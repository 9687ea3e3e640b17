#include "core/alloc/utility_cache.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mrca {
namespace {

/// User's rate share with `own` of `load` radios on a channel — the same
/// arithmetic as detail::share, against the model's memoized tables.
double load_share(const GameModel& model, ChannelId channel, RadioCount own,
                  RadioCount load) {
  if (own <= 0 || load <= 0) return 0.0;
  return static_cast<double>(own) / static_cast<double>(load) *
         model.rate(channel, load);
}

}  // namespace

UtilityCache::UtilityCache(const GameModel& model,
                           const StrategyMatrix& strategies)
    : model_(&model),
      topology_(model.topology().get()),
      num_channels_(model.config().num_channels) {
  rebuild(strategies);
}

void UtilityCache::rebuild(const StrategyMatrix& strategies) {
  model_->validate(strategies);
  tracked_ = &strategies;
  occupant_count_.assign(num_channels_, 0);
  for (UserId i = 0; i < strategies.num_users(); ++i) {
    strategies.for_each_row_entry(
        i, [&](ChannelId c, RadioCount) { ++occupant_count_[c]; });
  }
  reset_scan_state();
  if (topology_ == nullptr) {
    welfare_ = model_->raw_welfare(strategies);
    return;
  }
  // Neighborhood mode: utilities read per-user perceived loads, and
  // welfare has no per-channel shortcut — it IS the sum of utilities.
  // Perceived loads are integer sums, so scatter order is free: each
  // occupied (j, c) entry contributes to j's closed neighborhood,
  // O(nnz * degree) total instead of O(|N|*|C|*degree).
  const std::size_t users = strategies.num_users();
  perceived_.assign(users * num_channels_, 0);
  for (UserId j = 0; j < users; ++j) {
    strategies.for_each_row_entry(j, [&](ChannelId c, RadioCount own) {
      perceived(j, c) += own;
      for (const UserId i : topology_->neighbors(j)) {
        perceived(i, c) += own;
      }
    });
  }
  // Welfare sums channel-major, ascending users within a channel — the
  // order its bits are pinned to. A transient counting sort of the
  // occupied (user, own) entries by channel yields that order in O(nnz).
  std::vector<std::size_t> begin(num_channels_ + 1, 0);
  for (ChannelId c = 0; c < num_channels_; ++c) {
    begin[c + 1] = begin[c] + occupant_count_[c];
  }
  std::vector<UserId> entry_user(begin.back());
  std::vector<RadioCount> entry_own(begin.back());
  std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
  for (UserId i = 0; i < users; ++i) {
    strategies.for_each_row_entry(i, [&](ChannelId c, RadioCount own) {
      entry_user[next[c]] = i;
      entry_own[next[c]++] = own;
    });
  }
  welfare_ = 0.0;
  for (ChannelId c = 0; c < num_channels_; ++c) {
    for (std::size_t s = begin[c]; s < begin[c + 1]; ++s) {
      welfare_ += load_share(*model_, c, entry_own[s],
                             perceived(entry_user[s], c));
    }
  }
  const double cost = model_->radio_cost();
  if (cost > 0.0) {
    welfare_ -= cost * static_cast<double>(strategies.total_deployed());
  }
}

void UtilityCache::check_tracked(const StrategyMatrix& strategies) const {
  if (&strategies != tracked_) {
    throw std::logic_error(
        "UtilityCache: mutation through a matrix this cache does not track "
        "(build the cache on it, or rebuild(), first)");
  }
}

void UtilityCache::reset_scan_state() {
  if (!scan_pruning_) return;
  const std::size_t users = tracked_->num_users();
  if (topology_ != nullptr) {
    dirty_mask_.assign(users, kAllDirty);
  } else {
    change_epoch_ = 1;
    channel_epoch_.assign(num_channels_, 0);
    last_clean_scan_.assign(users, 0);
  }
}

void UtilityCache::enable_scan_pruning() {
  if (scan_pruning_) return;
  scan_pruning_ = true;
  reset_scan_state();
}

UtilityCache::ScanPlan UtilityCache::plan_scan(UserId user,
                                               std::vector<ChannelId>& dirty) {
  dirty.clear();
  if (!scan_pruning_) return ScanPlan::kFull;
  if (topology_ != nullptr) {
    const std::uint64_t mask = dirty_mask_[user];
    if (mask == 0) {
      ++scan_skips_;
      return ScanPlan::kSkip;
    }
    if ((mask >> kMaskOverflowBit) != 0) return ScanPlan::kFull;
    for (ChannelId c = 0; c < num_channels_; ++c) {
      if ((mask & mask_bit(c)) != 0) dirty.push_back(c);
    }
    return ScanPlan::kDirtyChannels;
  }
  const std::uint64_t seen = last_clean_scan_[user];
  if (seen == 0) return ScanPlan::kFull;
  if (seen >= change_epoch_) {
    ++scan_skips_;
    return ScanPlan::kSkip;
  }
  for (ChannelId c = 0; c < num_channels_; ++c) {
    if (channel_epoch_[c] > seen) dirty.push_back(c);
  }
  return ScanPlan::kDirtyChannels;
}

void UtilityCache::note_scan(UserId user, bool changed) {
  if (!scan_pruning_) return;
  if (topology_ != nullptr) {
    dirty_mask_[user] = changed ? kAllDirty : 0;
    return;
  }
  last_clean_scan_[user] = changed ? 0 : change_epoch_;
}

void UtilityCache::reprice_channel(const StrategyMatrix& strategies,
                                   UserId user, ChannelId channel,
                                   RadioCount delta) {
  if (delta == 0) return;
  const double cost_delta =
      model_->radio_cost() * static_cast<double>(delta);
  const RadioCount old_own = strategies.at(user, channel);
  if (topology_ != nullptr) {
    // Only the mover's CLOSED NEIGHBORHOOD perceives the change — everyone
    // else's loads and shares are untouched. O(degree), not
    // O(occupants): the sparse-graph pruning the scale work leans on. The
    // same walk stamps the dirty bit: exactly the users whose view of
    // `channel` shifts get their scan memo narrowed to it.
    const std::uint64_t bit = scan_pruning_ ? mask_bit(channel) : 0;
    const auto update = [&](UserId j) {
      RadioCount& load = perceived(j, channel);
      const RadioCount own = strategies.at(j, channel);
      const RadioCount own_after = own + (j == user ? delta : 0);
      welfare_ += load_share(*model_, channel, own_after, load + delta) -
                  load_share(*model_, channel, own, load);
      load += delta;
      if (bit != 0) dirty_mask_[j] |= bit;
      ++reprice_touches_;
    };
    update(user);
    for (const UserId j : topology_->neighbors(user)) update(j);
    welfare_ -= cost_delta;
  } else {
    if (scan_pruning_) {
      ++change_epoch_;
      channel_epoch_[channel] = change_epoch_;
    }
    const RadioCount old_load = strategies.channel_load(channel);
    const RadioCount new_load = old_load + delta;
    // The mover's utility moves, and so does every occupant's whenever the
    // per-radio share changes; utility() reads them on demand, so only
    // welfare is stored.
    if (model_->per_radio(channel, new_load) !=
        model_->per_radio(channel, old_load)) {
      reprice_touches_ += occupant_count_[channel];
    }
    ++reprice_touches_;
    welfare_ += model_->rate(channel, new_load) -
                model_->rate(channel, old_load) - cost_delta;
  }

  if (old_own == 0) {
    ++occupant_count_[channel];
  } else if (old_own + delta == 0) {
    --occupant_count_[channel];
  }
}

// Every mutator validates its preconditions (mirroring StrategyMatrix's
// checks, plus the model's per-user budgets) BEFORE the first cached value
// changes: a mutation that throws must leave both the matrix and the cache
// exactly as they were.

void UtilityCache::add_radio(StrategyMatrix& strategies, UserId user,
                             ChannelId channel) {
  check_tracked(strategies);
  (void)strategies.spare_radios(user);  // validates the user id
  if (strategies.user_total(user) >= model_->budget(user)) {
    throw std::logic_error("add_radio: user " + std::to_string(user) +
                           " has no spare radio");
  }
  reprice_channel(strategies, user, channel, +1);
  strategies.add_radio(user, channel);
}

void UtilityCache::remove_radio(StrategyMatrix& strategies, UserId user,
                                ChannelId channel) {
  check_tracked(strategies);
  if (strategies.at(user, channel) <= 0) {  // also validates both ids
    throw std::logic_error("remove_radio: user " + std::to_string(user) +
                           " has no radio on channel " +
                           std::to_string(channel));
  }
  reprice_channel(strategies, user, channel, -1);
  strategies.remove_radio(user, channel);
}

void UtilityCache::move_radio(StrategyMatrix& strategies, UserId user,
                              ChannelId from, ChannelId to) {
  check_tracked(strategies);
  if (strategies.at(user, from) <= 0) {
    throw std::logic_error("move_radio: user " + std::to_string(user) +
                           " has no radio on channel " +
                           std::to_string(from));
  }
  (void)strategies.channel_load(to);  // validate `to` before any update
  if (from == to) return;
  reprice_channel(strategies, user, from, -1);
  strategies.remove_radio(user, from);
  reprice_channel(strategies, user, to, +1);
  strategies.add_radio(user, to);
}

void UtilityCache::set_row(StrategyMatrix& strategies, UserId user,
                           std::span<const RadioCount> new_row) {
  check_tracked(strategies);
  (void)strategies.user_total(user);  // validates the user id
  if (new_row.size() != num_channels_) {
    throw std::invalid_argument("set_row: wrong row width");
  }
  RadioCount total = 0;
  for (const RadioCount count : new_row) {
    if (count < 0) throw std::invalid_argument("set_row: negative radio count");
    total += count;
  }
  if (total > model_->budget(user)) {
    throw std::invalid_argument(
        "set_row: user exceeds radio budget k=" +
        std::to_string(model_->budget(user)));
  }
  // Channel updates are additive and independent, so reprice every changed
  // channel against the old matrix, then commit the row in one go.
  for (ChannelId c = 0; c < num_channels_; ++c) {
    reprice_channel(strategies, user, c, new_row[c] - strategies.at(user, c));
  }
  strategies.set_row(user, new_row);
}

void UtilityCache::apply(StrategyMatrix& strategies,
                         const SingleChange& change) {
  switch (change.kind) {
    case SingleChange::Kind::kMove:
      move_radio(strategies, change.user, change.from, change.to);
      return;
    case SingleChange::Kind::kDeploy:
      add_radio(strategies, change.user, change.to);
      return;
    case SingleChange::Kind::kPark:
      remove_radio(strategies, change.user, change.from);
      return;
  }
}

double UtilityCache::welfare_drift(const StrategyMatrix& strategies) const {
  // The cache tracks RAW welfare (what the dynamics trace records);
  // weighted models report through GameModel::welfare() separately.
  return std::abs(welfare_ - model_->raw_welfare(strategies));
}

}  // namespace mrca
