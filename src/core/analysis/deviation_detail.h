// THE single-radio deviation scanner and exact best-response DP — one
// implementation, shared by GameModel's checked members (core/
// game_model.cpp) and the dynamics drivers' cached scans (core/alloc,
// core/dynamics). The scan order (deploys, then per-source parks and
// moves), the strict-'>' tie policy and the share() arithmetic are
// load-bearing: every caller must walk bit-identical trajectories, so they
// must come from this file and nowhere else.
//
// `RateAt` is any callable `double(ChannelId, RadioCount)` returning the
// total rate of a channel at a load; `cost` is the per-radio energy price
// (0 for the paper's game).
//
// `LoadAt` is any callable `RadioCount(ChannelId)` returning the load the
// DEVIATING user experiences on a channel: the global column sum in the
// single collision domain, the user's closed-neighborhood perceived load
// under an interference graph. Both satisfy the one
// property the arithmetic relies on: moving the user's own radio changes
// the load it sees by exactly +/-1 (the user is in its own closed
// neighborhood), so every benefit formula generalizes by substituting the
// accessor and nothing else.
//
// Hot-path layout: the scans precompute three contiguous per-channel share
// arrays (current share, share after adding a radio, share after removing
// one) in one flat pass over the channels, then enumerate candidates as
// pure array reads. Each candidate's benefit is assembled with exactly the
// same expression shape the per-candidate helpers use — same terms, same
// grouping — so the flat kernels are bit-identical to the scalar path.
// `scan_single_changes_pruned` additionally restricts the enumeration to
// candidates touching a caller-proven "dirty" channel set (see
// UtilityCache::plan_scan); everything it omits was <= tolerance at the
// user's last completed scan and is unchanged since.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/strategy.h"
#include "core/types.h"

namespace mrca {
namespace detail {

/// User's rate share with `own` of `load` radios on a channel paying
/// `rate`. Zero own radios earn zero.
inline double share(double rate, RadioCount own, RadioCount load) {
  if (own <= 0 || load <= 0) return 0.0;
  return static_cast<double>(own) / static_cast<double>(load) * rate;
}

/// The paper's raw utility U_i = sum_c k_{i,c}/k_c * R_c(k_c) - cost *
/// deployed, with k_c the load `user` sees (`load_at`), summed over the
/// user's occupied channels in ascending order. The one copy of the
/// formula: GameModel's utilities and UtilityCache::utility all evaluate
/// it, so the dynamics and the equilibrium checks read the same bits.
template <typename RateAt, typename LoadAt>
double raw_utility(const StrategyMatrix& strategies, UserId user,
                   RateAt rate_at, double cost, LoadAt load_at) {
  double total = 0.0;
  strategies.for_each_row_entry(user, [&](ChannelId c, RadioCount own) {
    const RadioCount load = load_at(c);
    total += share(rate_at(c, load), own, load);
  });
  return total - cost * static_cast<double>(strategies.user_total(user));
}

/// Reusable per-scan scratch: the user's dense row, the loads it
/// perceives, the three flat share kernels every candidate benefit is
/// assembled from, and the best-response DP's tables. Hoisting this out of
/// the scan lets a dynamics driver run millions of activations with zero
/// per-activation allocation.
struct ScanBuffers {
  std::vector<RadioCount> own;     // user's row, densified
  std::vector<RadioCount> load;    // load the user perceives per channel
                                   // (the DP: the opponents' load)
  std::vector<double> before;      // share at the current allocation
  std::vector<double> gain_to;     // share after adding one radio
  std::vector<double> gain_from;   // share after removing one radio
  std::vector<double> dp_gain;           // best_response's gain table
  std::vector<double> dp_value;          // best_response's value table
  std::vector<std::uint32_t> dp_choice;  // best_response's choice table

  void resize(std::size_t channels) {
    own.resize(channels);
    load.resize(channels);
    before.resize(channels);
    gain_to.resize(channels);
    gain_from.resize(channels);
  }
};

template <typename RateAt, typename LoadAt>
double move_benefit_at(const StrategyMatrix& strategies, UserId user,
                       ChannelId from, ChannelId to, RateAt rate_at,
                       LoadAt load_at) {
  if (from == to) return 0.0;
  const RadioCount own_from = strategies.at(user, from);
  const RadioCount own_to = strategies.at(user, to);
  const RadioCount load_from = load_at(from);
  const RadioCount load_to = load_at(to);
  const double before = share(rate_at(from, load_from), own_from, load_from) +
                        share(rate_at(to, load_to), own_to, load_to);
  const double after =
      share(rate_at(from, load_from - 1), own_from - 1, load_from - 1) +
      share(rate_at(to, load_to + 1), own_to + 1, load_to + 1);
  return after - before;
}

/// Deploying one spare radio pays the energy price; a move is cost-neutral.
template <typename RateAt, typename LoadAt>
double deploy_benefit_at(const StrategyMatrix& strategies, UserId user,
                         ChannelId channel, RateAt rate_at, double cost,
                         LoadAt load_at) {
  const RadioCount own = strategies.at(user, channel);
  const RadioCount load = load_at(channel);
  return share(rate_at(channel, load + 1), own + 1, load + 1) -
         share(rate_at(channel, load), own, load) - cost;
}

/// Parking one radio refunds the energy price.
template <typename RateAt, typename LoadAt>
double park_benefit_at(const StrategyMatrix& strategies, UserId user,
                       ChannelId channel, RateAt rate_at, double cost,
                       LoadAt load_at) {
  const RadioCount own = strategies.at(user, channel);
  const RadioCount load = load_at(channel);
  return share(rate_at(channel, load - 1), own - 1, load - 1) -
         share(rate_at(channel, load), own, load) + cost;
}

/// Fills the three share kernels for channel `c` from buf.own / buf.load.
/// gain_from is only read on occupied channels, and gain_to only when
/// `gain_to_read` (a deploy, or a move in from another occupied channel).
/// The guards keep rate_at off loads no radio can reach: a negative one on
/// an empty channel, and one past every radio stacked on one channel,
/// which a strict TabulatedRate rejects.
template <typename RateAt>
inline void fill_share_kernels(ScanBuffers& buf, ChannelId c, RateAt rate_at,
                               bool gain_to_read) {
  const RadioCount own = buf.own[c];
  const RadioCount load = buf.load[c];
  buf.before[c] = share(rate_at(c, load), own, load);
  buf.gain_to[c] =
      gain_to_read ? share(rate_at(c, load + 1), own + 1, load + 1) : 0.0;
  buf.gain_from[c] =
      own > 0 ? share(rate_at(c, load - 1), own - 1, load - 1) : 0.0;
}

/// Enumerates every single-radio change of `user` — deploys first (only
/// when `has_spare`), then per-source parks and moves — feeding each
/// candidate to `consider(SingleChange)`. The enumeration order is part of
/// the determinism contract.
template <typename RateAt, typename LoadAt, typename Consider>
void scan_single_changes(const StrategyMatrix& strategies, UserId user,
                         RateAt rate_at, double cost, bool has_spare,
                         LoadAt load_at, ScanBuffers& buf,
                         Consider&& consider) {
  const std::size_t channels = strategies.num_channels();
  buf.resize(channels);
  strategies.copy_row(user, buf.own);
  for (ChannelId c = 0; c < channels; ++c) buf.load[c] = load_at(c);
  // A move into c needs a radio off c.
  const RadioCount total = strategies.user_total(user);
  for (ChannelId c = 0; c < channels; ++c) {
    fill_share_kernels(buf, c, rate_at, has_spare || buf.own[c] < total);
  }
  if (has_spare) {
    for (ChannelId to = 0; to < channels; ++to) {
      consider(SingleChange{SingleChange::Kind::kDeploy, user, /*from=*/0, to,
                            buf.gain_to[to] - buf.before[to] - cost});
    }
  }
  for (ChannelId from = 0; from < channels; ++from) {
    if (buf.own[from] <= 0) continue;
    consider(SingleChange{SingleChange::Kind::kPark, user, from, /*to=*/0,
                          buf.gain_from[from] - buf.before[from] + cost});
    for (ChannelId to = 0; to < channels; ++to) {
      if (to == from) continue;
      consider(SingleChange{
          SingleChange::Kind::kMove, user, from, to,
          (buf.gain_from[from] + buf.gain_to[to]) -
              (buf.before[from] + buf.before[to])});
    }
  }
}

/// Partial rescan against a proven-clean memo: the caller guarantees that
/// `user`'s row is unchanged since a completed scan that found no candidate
/// above tolerance, and that every channel whose load (as seen by `user`)
/// changed since then is listed in `dirty` (ascending). Candidates that
/// touch no dirty channel then keep their last-scanned benefit, still
/// <= tolerance, so only deploys onto and moves onto a dirty channel need
/// recomputation — in the same relative order the full scan would visit
/// them, which keeps argmax and list results identical to a full rescan.
/// If one of the user's own channels is dirty, every move out of it (any
/// destination) must be repriced, so the scan falls back to the full flat
/// kernel — trivially identical to the unpruned scan.
template <typename RateAt, typename LoadAt, typename Consider>
void scan_single_changes_pruned(const StrategyMatrix& strategies, UserId user,
                                RateAt rate_at, double cost, bool has_spare,
                                LoadAt load_at,
                                std::span<const ChannelId> dirty,
                                ScanBuffers& buf, Consider&& consider) {
  const std::size_t channels = strategies.num_channels();
  buf.resize(channels);
  strategies.copy_row(user, buf.own);
  for (const ChannelId c : dirty) {
    if (buf.own[c] > 0) {
      scan_single_changes(strategies, user, rate_at, cost, has_spare, load_at,
                          buf, std::forward<Consider>(consider));
      return;
    }
  }
  // Fill loads and share kernels only where a candidate can read them:
  // dirty destinations and the user's occupied source channels (the two
  // sets are disjoint here, so only a dirty channel is ever moved onto).
  const bool gain_to_read = has_spare || strategies.user_total(user) > 0;
  for (const ChannelId c : dirty) {
    buf.load[c] = load_at(c);
    fill_share_kernels(buf, c, rate_at, gain_to_read);
  }
  for (ChannelId c = 0; c < channels; ++c) {
    if (buf.own[c] <= 0) continue;
    buf.load[c] = load_at(c);
    fill_share_kernels(buf, c, rate_at, /*gain_to_read=*/false);
  }
  if (has_spare) {
    for (const ChannelId to : dirty) {
      consider(SingleChange{SingleChange::Kind::kDeploy, user, /*from=*/0, to,
                            buf.gain_to[to] - buf.before[to] - cost});
    }
  }
  // Parks are skipped outright: a clean source channel's park benefit is
  // unchanged and was <= tolerance.
  for (ChannelId from = 0; from < channels; ++from) {
    if (buf.own[from] <= 0) continue;
    for (const ChannelId to : dirty) {
      consider(SingleChange{
          SingleChange::Kind::kMove, user, from, to,
          (buf.gain_from[from] + buf.gain_to[to]) -
              (buf.before[from] + buf.before[to])});
    }
  }
}

/// The full enumeration when `dirty` is null, otherwise the pruned one over
/// that dirty-channel list (see scan_single_changes_pruned for its validity
/// contract). Either way the candidates above tolerance are exactly the
/// full scan's, in its relative order.
template <typename RateAt, typename LoadAt, typename Consider>
void scan_changes(const StrategyMatrix& strategies, UserId user,
                  RateAt rate_at, double cost, bool has_spare, LoadAt load_at,
                  const std::vector<ChannelId>* dirty, ScanBuffers& buf,
                  Consider&& consider) {
  if (dirty != nullptr) {
    scan_single_changes_pruned(strategies, user, rate_at, cost, has_spare,
                               load_at, *dirty, buf,
                               std::forward<Consider>(consider));
  } else {
    scan_single_changes(strategies, user, rate_at, cost, has_spare, load_at,
                        buf, std::forward<Consider>(consider));
  }
}

template <typename RateAt, typename LoadAt>
std::optional<SingleChange> best_single_change(
    const StrategyMatrix& strategies, UserId user, double tolerance,
    RateAt rate_at, double cost, bool has_spare, LoadAt load_at,
    const std::vector<ChannelId>* dirty, ScanBuffers& buf) {
  std::optional<SingleChange> best;
  scan_changes(strategies, user, rate_at, cost, has_spare, load_at, dirty,
               buf, [&](const SingleChange& candidate) {
                 if (candidate.benefit <= tolerance) return;
                 if (!best || candidate.benefit > best->benefit) {
                   best = candidate;
                 }
               });
  return best;
}

template <typename RateAt, typename LoadAt>
std::vector<SingleChange> improving_changes(
    const StrategyMatrix& strategies, UserId user, double tolerance,
    RateAt rate_at, double cost, bool has_spare, LoadAt load_at,
    const std::vector<ChannelId>* dirty, ScanBuffers& buf) {
  std::vector<SingleChange> result;
  scan_changes(strategies, user, rate_at, cost, has_spare, load_at, dirty,
               buf, [&](const SingleChange& candidate) {
                 if (candidate.benefit > tolerance) result.push_back(candidate);
               });
  return result;
}

/// Exact best response of `user` against the other users' radios under
/// `budget`: maximize sum_c f_c(x_c), f_c(x) = x * R_c(L_c + x) / (L_c + x)
/// - cost * x, with L_c the opponents' load on channel c (global or
/// neighborhood-perceived, per `load_at`), subject to sum_c x_c <= budget.
/// O(|C| * budget^2) DP over flat row-major tables in `buf`, no concavity
/// assumption — an oracle over every deviation including partial
/// deployment.
template <typename RateAt, typename LoadAt>
BestResponse best_response(const StrategyMatrix& strategies, UserId user,
                           std::size_t budget, RateAt rate_at, double cost,
                           LoadAt load_at, ScanBuffers& buf) {
  const std::size_t channels = strategies.num_channels();
  const std::size_t width = budget + 1;

  // Opponents' load per channel.
  buf.own.resize(channels);
  strategies.copy_row(user, buf.own);
  buf.load.resize(channels);
  for (ChannelId c = 0; c < channels; ++c) {
    buf.load[c] = load_at(c) - buf.own[c];
  }

  // gain[c*width + x]: user's utility from placing x radios on channel c.
  buf.dp_gain.resize(channels * width);
  for (ChannelId c = 0; c < channels; ++c) {
    double* gain_row = buf.dp_gain.data() + c * width;
    gain_row[0] = 0.0;
    for (std::size_t x = 1; x <= budget; ++x) {
      const RadioCount load = buf.load[c] + static_cast<RadioCount>(x);
      gain_row[x] = static_cast<double>(x) / static_cast<double>(load) *
                        rate_at(c, load) -
                    cost * static_cast<double>(x);
    }
  }

  // value[c*width + b]: best achievable total from channels c..end with b
  // radios (the row past the last channel is all zero). choice[c*width +
  // b]: the optimal count placed on channel c.
  buf.dp_value.resize((channels + 1) * width);
  std::fill_n(buf.dp_value.data() + channels * width, width, 0.0);
  buf.dp_choice.resize(channels * width);
  const double* gain = buf.dp_gain.data();
  double* value = buf.dp_value.data();
  std::uint32_t* choice = buf.dp_choice.data();
  for (ChannelId c = channels; c-- > 0;) {
    const double* gain_row = gain + c * width;
    const double* next_row = value + (c + 1) * width;
    double* value_row = value + c * width;
    std::uint32_t* choice_row = choice + c * width;
    for (std::size_t b = 0; b <= budget; ++b) {
      double best_value = -1e300;  // utilities go negative under a cost
      std::size_t best_x = 0;
      for (std::size_t x = 0; x <= b; ++x) {
        const double candidate = gain_row[x] + next_row[b - x];
        // Strict '>' with ascending x prefers parking surplus radios on
        // ties; utility is unaffected, and tests assert only the value.
        if (candidate > best_value) {
          best_value = candidate;
          best_x = x;
        }
      }
      value_row[b] = best_value;
      choice_row[b] = static_cast<std::uint32_t>(best_x);
    }
  }

  BestResponse response;
  response.utility = value[0 * width + budget];
  response.strategy.resize(channels, 0);
  std::size_t remaining = budget;
  for (ChannelId c = 0; c < channels; ++c) {
    const std::size_t x = choice[c * width + remaining];
    response.strategy[c] = static_cast<RadioCount>(x);
    remaining -= x;
  }
  return response;
}

}  // namespace detail
}  // namespace mrca
