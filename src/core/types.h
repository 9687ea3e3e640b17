// Fundamental identifiers and configuration for the multi-radio channel
// allocation game of Felegyhazi, Cagalj & Hubaux (ICDCS 2006).
//
// Model recap (paper §2): a set N of users, each owning a device with
// k <= |C| identical radios, allocates radios over a set C of orthogonal
// channels with identical expected characteristics. The strategy of user i
// is the vector s_i = (k_{i,1}, ..., k_{i,|C|}) of radio counts per channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace mrca {

/// Index of a user in [0, num_users).
using UserId = std::size_t;

/// Index of a channel in [0, num_channels).
using ChannelId = std::size_t;

/// A count of radios (per user per channel, per channel, or per user).
using RadioCount = int;

/// Narrows a radio total summed in 64 bits to RadioCount; throws
/// std::invalid_argument naming the total when it exceeds RadioCount's
/// range, which would otherwise wrap and size rate tables from a garbage
/// bound.
inline RadioCount checked_radio_total(std::int64_t total) {
  constexpr RadioCount kLimit = std::numeric_limits<RadioCount>::max();
  if (total > kLimit) {
    throw std::invalid_argument("total radio count " + std::to_string(total) +
                                " exceeds the limit " +
                                std::to_string(kLimit));
  }
  return static_cast<RadioCount>(total);
}

/// Static parameters of one game instance.
///
/// Invariants enforced on construction:
///   - num_users >= 1, num_channels >= 1,
///   - 1 <= radios_per_user <= num_channels (the paper's k <= |C|),
///   - |N| * k fits in RadioCount.
struct GameConfig {
  std::size_t num_users = 0;
  std::size_t num_channels = 0;
  RadioCount radios_per_user = 0;

  GameConfig(std::size_t users, std::size_t channels, RadioCount radios)
      : num_users(users), num_channels(channels), radios_per_user(radios) {
    if (users == 0) throw std::invalid_argument("GameConfig: users must be >= 1");
    if (channels == 0) {
      throw std::invalid_argument("GameConfig: channels must be >= 1");
    }
    if (radios < 1) {
      throw std::invalid_argument("GameConfig: radios_per_user must be >= 1");
    }
    if (static_cast<std::size_t>(radios) > channels) {
      throw std::invalid_argument(
          "GameConfig: model requires k <= |C| (radios_per_user <= channels)");
    }
    // Saturates instead of wrapping when |N| * k exceeds even 64 bits.
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t total =
        users > static_cast<std::uint64_t>(kMax / radios)
            ? kMax
            : static_cast<std::int64_t>(users) * radios;
    checked_radio_total(total);
  }

  /// Total radios in the system, |N| * k (in range by construction).
  RadioCount total_radios() const noexcept {
    return static_cast<RadioCount>(num_users) * radios_per_user;
  }

  /// True when |N|*k > |C|: the "conflict" regime the paper analyzes after
  /// Fact 1 (some channel must carry more than one radio).
  bool has_conflict() const noexcept {
    return static_cast<std::size_t>(total_radios()) > num_channels;
  }

  std::string describe() const {
    return "N=" + std::to_string(num_users) + ", k=" +
           std::to_string(radios_per_user) + ", C=" +
           std::to_string(num_channels);
  }

  friend bool operator==(const GameConfig&, const GameConfig&) = default;
};

/// Default relative tolerance for comparing utilities. Utilities are sums of
/// O(|C|) products of rationals and rates, so 1e-9 is far above accumulated
/// rounding error yet far below any real utility difference.
inline constexpr double kUtilityTolerance = 1e-9;

/// The epsilon of the epsilon-Nash equilibrium the `convergence` metric
/// times: a unilateral gain of at least this much still counts as an
/// incentive to deviate. Far above kUtilityTolerance, so every such gain is
/// an improving step of the dynamics.
inline constexpr double kEpsilonNe = 1e-2;

}  // namespace mrca
