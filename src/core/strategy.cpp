#include "core/strategy.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace mrca {
namespace {

/// Dense cell count at which the single-argument constructor switches to
/// sparse slots (when the shape is genuinely sparse, see auto_storage).
/// 2^20 cells = 4 MiB dense: small enough that everything below it stays
/// on the simple contiguous layout, large enough that sweeps and tests
/// keep exercising dense rows.
constexpr std::size_t kAutoSparseCells = std::size_t{1} << 20;

}  // namespace

StrategyMatrix::Storage StrategyMatrix::auto_storage(
    const GameConfig& config) noexcept {
  const std::size_t cells = config.num_users * config.num_channels;
  const bool sparse_shape =
      config.num_channels >
      2 * static_cast<std::size_t>(config.radios_per_user);
  return (cells >= kAutoSparseCells && sparse_shape) ? Storage::kSparse
                                                     : Storage::kDense;
}

StrategyMatrix::StrategyMatrix(const GameConfig& config)
    : StrategyMatrix(config, auto_storage(config)) {}

StrategyMatrix::StrategyMatrix(const GameConfig& config, Storage storage)
    : config_(config),
      storage_(storage),
      channel_loads_(config.num_channels, 0),
      user_totals_(config.num_users, 0) {
  if (storage_ == Storage::kDense) {
    cells_.assign(config.num_users * config.num_channels, 0);
  } else {
    if (config.num_channels >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "StrategyMatrix: sparse storage caps channels at 2^32-1");
    }
    slot_capacity_ = static_cast<std::size_t>(config.radios_per_user);
    slot_channel_.assign(config.num_users * slot_capacity_, 0);
    slot_count_.assign(config.num_users * slot_capacity_, 0);
    slot_used_.assign(config.num_users, 0);
  }
}

StrategyMatrix StrategyMatrix::from_rows(
    const GameConfig& config,
    const std::vector<std::vector<RadioCount>>& rows) {
  if (rows.size() != config.num_users) {
    throw std::invalid_argument("StrategyMatrix: wrong number of rows");
  }
  StrategyMatrix matrix(config);
  for (UserId i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != config.num_channels) {
      throw std::invalid_argument("StrategyMatrix: wrong row width for user " +
                                  std::to_string(i));
    }
    matrix.set_row(i, rows[i]);
  }
  return matrix;
}

void StrategyMatrix::bump_cell(UserId user, ChannelId channel,
                               RadioCount delta) {
  if (delta == 0) return;
  if (storage_ == Storage::kDense) {
    cells_[user * config_.num_channels + channel] += delta;
    return;
  }
  const std::size_t base = user * slot_capacity_;
  std::uint32_t used = slot_used_[user];
  const auto target = static_cast<std::uint32_t>(channel);
  std::uint32_t s = 0;
  while (s < used && slot_channel_[base + s] < target) ++s;
  if (s < used && slot_channel_[base + s] == target) {
    slot_count_[base + s] += delta;
    if (slot_count_[base + s] == 0) {  // drop the slot, keep order
      for (std::uint32_t t = s + 1; t < used; ++t) {
        slot_channel_[base + t - 1] = slot_channel_[base + t];
        slot_count_[base + t - 1] = slot_count_[base + t];
      }
      slot_used_[user] = used - 1;
    }
    return;
  }
  // New occupied channel: insert at the sorted position. Capacity always
  // suffices — callers keep every count non-negative and the row total
  // within the budget, so distinct channels <= k == slot_capacity_.
  for (std::uint32_t t = used; t > s; --t) {
    slot_channel_[base + t] = slot_channel_[base + t - 1];
    slot_count_[base + t] = slot_count_[base + t - 1];
  }
  slot_channel_[base + s] = target;
  slot_count_[base + s] = delta;
  slot_used_[user] = used + 1;
}

std::span<const RadioCount> StrategyMatrix::row(UserId user) const {
  check_user(user);
  if (storage_ != Storage::kDense) {
    throw std::logic_error(
        "StrategyMatrix::row: no contiguous row under sparse storage; use "
        "copy_row() or for_each_row_entry()");
  }
  return {cells_.data() + user * config_.num_channels, config_.num_channels};
}

void StrategyMatrix::copy_row(UserId user, std::span<RadioCount> out) const {
  check_user(user);
  if (out.size() != config_.num_channels) {
    throw std::invalid_argument("copy_row: wrong output width");
  }
  if (storage_ == Storage::kDense) {
    const RadioCount* base = cells_.data() + user * config_.num_channels;
    std::copy(base, base + config_.num_channels, out.begin());
    return;
  }
  std::fill(out.begin(), out.end(), 0);
  const std::size_t base = user * slot_capacity_;
  const std::uint32_t used = slot_used_[user];
  for (std::uint32_t s = 0; s < used; ++s) {
    out[slot_channel_[base + s]] = slot_count_[base + s];
  }
}

RadioCount StrategyMatrix::channel_load(ChannelId channel) const {
  check_channel(channel);
  return channel_loads_[channel];
}

RadioCount StrategyMatrix::user_total(UserId user) const {
  check_user(user);
  return user_totals_[user];
}

RadioCount StrategyMatrix::spare_radios(UserId user) const {
  return config_.radios_per_user - user_total(user);
}

RadioCount StrategyMatrix::min_load() const {
  return *std::min_element(channel_loads_.begin(), channel_loads_.end());
}

RadioCount StrategyMatrix::max_load() const {
  return *std::max_element(channel_loads_.begin(), channel_loads_.end());
}

std::vector<ChannelId> StrategyMatrix::min_loaded_channels() const {
  const RadioCount lo = min_load();
  std::vector<ChannelId> result;
  for (ChannelId c = 0; c < config_.num_channels; ++c) {
    if (channel_loads_[c] == lo) result.push_back(c);
  }
  return result;
}

std::vector<ChannelId> StrategyMatrix::max_loaded_channels() const {
  const RadioCount hi = max_load();
  std::vector<ChannelId> result;
  for (ChannelId c = 0; c < config_.num_channels; ++c) {
    if (channel_loads_[c] == hi) result.push_back(c);
  }
  return result;
}

std::vector<ChannelId> StrategyMatrix::occupied_channels() const {
  std::vector<ChannelId> result;
  for (ChannelId c = 0; c < config_.num_channels; ++c) {
    if (channel_loads_[c] > 0) result.push_back(c);
  }
  return result;
}

RadioCount StrategyMatrix::load_difference(ChannelId b, ChannelId c) const {
  return channel_load(b) - channel_load(c);
}

void StrategyMatrix::add_radio(UserId user, ChannelId channel) {
  check_user(user);
  check_channel(channel);
  if (user_totals_[user] >= config_.radios_per_user) {
    throw std::logic_error("add_radio: user " + std::to_string(user) +
                           " has no spare radio");
  }
  bump_cell(user, channel, 1);
  ++channel_loads_[channel];
  ++user_totals_[user];
  ++total_deployed_;
}

void StrategyMatrix::remove_radio(UserId user, ChannelId channel) {
  check_user(user);
  check_channel(channel);
  if (get_cell(user, channel) <= 0) {
    throw std::logic_error("remove_radio: user " + std::to_string(user) +
                           " has no radio on channel " +
                           std::to_string(channel));
  }
  bump_cell(user, channel, -1);
  --channel_loads_[channel];
  --user_totals_[user];
  --total_deployed_;
}

void StrategyMatrix::move_radio(UserId user, ChannelId from, ChannelId to) {
  if (from == to) return;
  check_channel(to);
  remove_radio(user, from);
  // remove_radio cannot throw after this point; re-add preserves invariants.
  bump_cell(user, to, 1);
  ++channel_loads_[to];
  ++user_totals_[user];
  ++total_deployed_;
}

void StrategyMatrix::set_row(UserId user, std::span<const RadioCount> new_row) {
  check_user(user);
  if (new_row.size() != config_.num_channels) {
    throw std::invalid_argument("set_row: wrong row width");
  }
  RadioCount total = 0;
  for (const RadioCount count : new_row) {
    if (count < 0) throw std::invalid_argument("set_row: negative radio count");
    total += count;
  }
  if (total > config_.radios_per_user) {
    throw std::invalid_argument("set_row: user exceeds radio budget k=" +
                                std::to_string(config_.radios_per_user));
  }
  if (storage_ == Storage::kDense) {
    for (ChannelId c = 0; c < config_.num_channels; ++c) {
      const RadioCount old_count = cells_[user * config_.num_channels + c];
      channel_loads_[c] += new_row[c] - old_count;
      total_deployed_ += new_row[c] - old_count;
      cells_[user * config_.num_channels + c] = new_row[c];
    }
  } else {
    // Retire the old slots, then write the new row wholesale (ascending,
    // so the sorted-slot invariant holds by construction).
    const std::size_t base = user * slot_capacity_;
    const std::uint32_t old_used = slot_used_[user];
    for (std::uint32_t s = 0; s < old_used; ++s) {
      channel_loads_[slot_channel_[base + s]] -= slot_count_[base + s];
      total_deployed_ -= slot_count_[base + s];
    }
    std::uint32_t used = 0;
    for (ChannelId c = 0; c < config_.num_channels; ++c) {
      if (new_row[c] == 0) continue;
      slot_channel_[base + used] = static_cast<std::uint32_t>(c);
      slot_count_[base + used] = new_row[c];
      channel_loads_[c] += new_row[c];
      total_deployed_ += new_row[c];
      ++used;
    }
    slot_used_[user] = used;
  }
  user_totals_[user] = total;
}

bool StrategyMatrix::all_radios_deployed() const {
  return std::all_of(user_totals_.begin(), user_totals_.end(),
                     [this](RadioCount total) {
                       return total == config_.radios_per_user;
                     });
}

bool StrategyMatrix::all_channels_occupied() const {
  return std::all_of(channel_loads_.begin(), channel_loads_.end(),
                     [](RadioCount load) { return load > 0; });
}

std::string StrategyMatrix::key() const {
  std::ostringstream out;
  std::vector<RadioCount> row(config_.num_channels, 0);
  for (UserId i = 0; i < config_.num_users; ++i) {
    if (i > 0) out << '|';
    copy_row(i, row);
    for (ChannelId c = 0; c < config_.num_channels; ++c) {
      if (c > 0) out << ',';
      out << row[c];
    }
  }
  return out.str();
}

bool operator==(const StrategyMatrix& a, const StrategyMatrix& b) {
  if (!(a.config_ == b.config_)) return false;
  if (a.storage_ == b.storage_ && a.storage_ == StrategyMatrix::Storage::kDense) {
    return a.cells_ == b.cells_;
  }
  // Cheap rejects first, then a logical per-row comparison that works for
  // any mix of representations.
  if (a.channel_loads_ != b.channel_loads_ || a.user_totals_ != b.user_totals_) {
    return false;
  }
  std::vector<RadioCount> row_a(a.config_.num_channels, 0);
  std::vector<RadioCount> row_b(b.config_.num_channels, 0);
  for (UserId i = 0; i < a.config_.num_users; ++i) {
    a.copy_row(i, row_a);
    b.copy_row(i, row_b);
    if (row_a != row_b) return false;
  }
  return true;
}

void StrategyMatrix::throw_user_out_of_range(UserId user) {
  throw std::out_of_range("StrategyMatrix: user id " + std::to_string(user) +
                          " out of range");
}

void StrategyMatrix::throw_channel_out_of_range(ChannelId channel) {
  throw std::out_of_range("StrategyMatrix: channel id " +
                          std::to_string(channel) + " out of range");
}

}  // namespace mrca
