// Strategy vectors and the strategy matrix S (paper §2, eq. (1)-(2)).
//
// Row i of the matrix is user i's strategy s_i = (k_{i,1}, ..., k_{i,|C|});
// column sums are the channel loads k_c. The class keeps the loads cached
// and updated incrementally so that equilibrium analysis and response
// dynamics run in O(1) per radio move.
//
// Two physical row representations share one mutator surface: the dense
// |N| x |C| cell grid, and a sparse per-user slot layout (each user
// occupies at most k of |C| channels, so k (channel, count) slots per user
// suffice). The sparse layout is what lets a 10^6-user cell fit in memory;
// it is selected automatically for large matrices and is observationally
// identical to dense storage everywhere except the dense-only `row()` view.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"

namespace mrca {

/// A single radio relocation: user moves one radio from `from` to `to`.
struct RadioMove {
  UserId user = 0;
  ChannelId from = 0;
  ChannelId to = 0;

  friend bool operator==(const RadioMove&, const RadioMove&) = default;
};

class StrategyMatrix {
 public:
  /// Physical row representation. kDense stores the full |N| x |C| grid;
  /// kSparse stores up to k sorted (channel, count) slots per user.
  enum class Storage { kDense, kSparse };

  /// All-zero matrix (no radios deployed yet). Picks the representation
  /// via auto_storage().
  explicit StrategyMatrix(const GameConfig& config);

  /// All-zero matrix with an explicit representation (test seam and
  /// benchmark control; semantics are identical either way).
  StrategyMatrix(const GameConfig& config, Storage storage);

  /// The representation the single-argument constructor picks: sparse once
  /// the dense grid would be large *and* genuinely sparse (|C| more than
  /// twice the per-user budget, so slots beat cells on bytes).
  static Storage auto_storage(const GameConfig& config) noexcept;

  /// Builds from explicit rows; validates shape, non-negativity and the
  /// per-user radio budget (sum of row i <= k).
  static StrategyMatrix from_rows(const GameConfig& config,
                                  const std::vector<std::vector<RadioCount>>& rows);

  const GameConfig& config() const noexcept { return config_; }
  std::size_t num_users() const noexcept { return config_.num_users; }
  std::size_t num_channels() const noexcept { return config_.num_channels; }
  Storage storage() const noexcept { return storage_; }

  /// k_{i,c}: radios user i operates on channel c. Inline because the
  /// dynamics read cells tens of millions of times per large cell; both
  /// range checks stay, only their throws live out of line.
  RadioCount at(UserId user, ChannelId channel) const {
    check_user(user);
    check_channel(channel);
    return get_cell(user, channel);
  }

  /// Row view of user i's strategy vector. Dense storage only — there is
  /// no contiguous row to point at in the sparse layout; use copy_row()
  /// or for_each_row_entry() for representation-agnostic access.
  std::span<const RadioCount> row(UserId user) const;

  /// Copies user i's full strategy vector into `out` (size |C|).
  void copy_row(UserId user, std::span<RadioCount> out) const;

  /// Calls fn(channel, count) for each channel where user i has at least
  /// one radio, in ascending channel order. The sparse-friendly row walk:
  /// O(occupied) per row instead of O(|C|).
  template <typename Fn>
  void for_each_row_entry(UserId user, Fn&& fn) const {
    check_user(user);
    if (storage_ == Storage::kDense) {
      const RadioCount* base = cells_.data() + user * config_.num_channels;
      for (ChannelId c = 0; c < config_.num_channels; ++c) {
        if (base[c] != 0) fn(c, base[c]);
      }
    } else {
      const std::size_t base = user * slot_capacity_;
      const std::uint32_t used = slot_used_[user];
      for (std::uint32_t s = 0; s < used; ++s) {
        fn(static_cast<ChannelId>(slot_channel_[base + s]),
           slot_count_[base + s]);
      }
    }
  }

  /// k_c: total radios on channel c (cached).
  RadioCount channel_load(ChannelId channel) const;

  /// All channel loads (k_1, ..., k_|C|).
  std::span<const RadioCount> channel_loads() const noexcept {
    return channel_loads_;
  }

  /// k_i: total radios user i has deployed.
  RadioCount user_total(UserId user) const;

  /// k - k_i: radios user i has left undeployed ("parked").
  RadioCount spare_radios(UserId user) const;

  /// Total deployed radios over all users.
  RadioCount total_deployed() const noexcept { return total_deployed_; }

  RadioCount min_load() const;
  RadioCount max_load() const;

  /// Channels achieving the minimum / maximum load (paper's C_min / C_max).
  std::vector<ChannelId> min_loaded_channels() const;
  std::vector<ChannelId> max_loaded_channels() const;

  /// Channels carrying at least one radio, ascending. This is the hand-off
  /// surface to the packet-level simulator: each occupied channel is one
  /// independent single-collision-domain simulation (FDMA assumption).
  std::vector<ChannelId> occupied_channels() const;

  /// delta_{b,c} = k_b - k_c (paper eq. (6); can be negative here).
  RadioCount load_difference(ChannelId b, ChannelId c) const;

  /// Deploys one additional radio of `user` on `channel`.
  /// Throws if the user has no spare radio.
  void add_radio(UserId user, ChannelId channel);

  /// Removes (parks) one radio of `user` from `channel`.
  /// Throws if the user has no radio there.
  void remove_radio(UserId user, ChannelId channel);

  /// Moves one radio of `user` from one channel to another.
  void move_radio(UserId user, ChannelId from, ChannelId to);
  void apply(const RadioMove& move) { move_radio(move.user, move.from, move.to); }

  /// Replaces user i's entire strategy vector (budget-checked).
  void set_row(UserId user, std::span<const RadioCount> new_row);

  /// True when every user deploys all k radios (Lemma 1's NE condition).
  bool all_radios_deployed() const;

  /// True when every channel carries at least one radio.
  bool all_channels_occupied() const;

  /// Canonical string key, e.g. "1,0,2|0,1,1" — rows joined by '|'.
  /// Useful for deduplication and diagnostics.
  std::string key() const;

  /// Representation-agnostic equality: same config and same logical cells,
  /// regardless of how either side stores its rows.
  friend bool operator==(const StrategyMatrix& a, const StrategyMatrix& b);

 private:
  void check_user(UserId user) const {
    if (user >= config_.num_users) throw_user_out_of_range(user);
  }
  void check_channel(ChannelId channel) const {
    if (channel >= config_.num_channels) throw_channel_out_of_range(channel);
  }
  [[noreturn]] static void throw_user_out_of_range(UserId user);
  [[noreturn]] static void throw_channel_out_of_range(ChannelId channel);

  /// k_{i,c} without bounds checks (both representations).
  RadioCount get_cell(UserId user, ChannelId channel) const {
    if (storage_ == Storage::kDense) {
      return cells_[user * config_.num_channels + channel];
    }
    const std::size_t base = user * slot_capacity_;
    const std::uint32_t used = slot_used_[user];
    const auto target = static_cast<std::uint32_t>(channel);
    for (std::uint32_t s = 0; s < used; ++s) {
      const std::uint32_t ch = slot_channel_[base + s];
      if (ch == target) return slot_count_[base + s];
      if (ch > target) break;  // slots are sorted ascending
    }
    return 0;
  }

  /// Adjusts k_{i,c} by delta in the backing storage only (loads/totals
  /// are the caller's responsibility). Sparse rows keep slots sorted.
  void bump_cell(UserId user, ChannelId channel, RadioCount delta);

  GameConfig config_;
  Storage storage_ = Storage::kDense;

  // kDense: row-major |N| x |C| cell grid.
  std::vector<RadioCount> cells_;

  // kSparse: per-user slot arrays (capacity k each, channels ascending).
  // A user's distinct occupied channels never exceed their radio budget,
  // so k slots always suffice.
  std::size_t slot_capacity_ = 0;
  std::vector<std::uint32_t> slot_channel_;
  std::vector<RadioCount> slot_count_;
  std::vector<std::uint32_t> slot_used_;

  std::vector<RadioCount> channel_loads_; // column sums
  std::vector<RadioCount> user_totals_;   // row sums
  RadioCount total_deployed_ = 0;
};

}  // namespace mrca
