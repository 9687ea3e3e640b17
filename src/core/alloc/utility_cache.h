// Incremental utility bookkeeping for the response dynamics and the batch
// engine, generalized over the unified GameModel.
//
// Recomputing every utility and the welfare is O(|N|*|C|); the dynamics
// touch at most two channel loads per activation, so almost all of that
// work repeats unchanged values. UtilityCache keeps
//   - the raw social welfare sum_c R_c(k_c) - cost * deployed,
//   - per-channel occupant counts (users with k_{i,c} > 0),
//   - under an interference topology only, every user's PERCEIVED load
//     P_i(c) (closed-neighborhood sum; see GameModel::perceived_load),
// and updates them under single-radio deltas instead of re-deriving them
// from the whole matrix; rate lookups go through the model's memoized
// per-channel tables. It stores no utility: U_i depends only on the
// user's own row and the loads the user sees, so utility(i) evaluates
// the one formula (detail::raw_utility) on demand over exact integer
// loads — bit-identical to GameModel::raw_utility in both domains. A
// reprice is O(1) per changed channel in the single collision domain;
// under a topology it touches ONLY the mover's closed neighborhood — on
// sparse graphs that is O(degree), the pruning lever the million-user
// scale item wants (reprice_touches() is the operation-count witness).
// Mutations go through the cache (which forwards to the StrategyMatrix)
// so matrix and cache can never drift apart structurally. Welfare is the
// one value maintained in floating point incrementally; it agrees with
// the full recompute to ~1e-13 over any realistic trajectory
// (regression-tested for every scenario kind).
//
// DIRTY-CHANNEL SCAN PRUNING (enable_scan_pruning): the cache can
// additionally witness which channels changed, as seen by each user, since
// that user's last completed no-change deviation scan. A best-response
// driver then asks plan_scan() before activating a user: kSkip means
// nothing the user can see has changed since a scan that found no
// improving candidate — the activation is a proven O(1) no-op (counted in
// scan_skips()); kDirtyChannels returns the ascending list of changed
// channels for a partial rescan (deviation_detail.h's *_pruned scans);
// kFull means no valid memo. Bookkeeping is O(1) per mutation: a global
// monotone change epoch + per-channel last-change stamps in the single
// collision domain, and a per-user dirty bitmask (bit 63 aggregating
// channels >= 63) under a topology, maintained inside the O(degree)
// neighborhood reprice. Pruned trajectories are bit-identical to unpruned
// ones — everything a plan omits is provably unchanged and was already
// below tolerance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis/deviation_detail.h"
#include "core/game_model.h"
#include "core/rate_table.h"
#include "core/strategy.h"
#include "core/topology.h"
#include "core/types.h"

namespace mrca {

class UtilityCache {
 public:
  /// Builds the cache for `strategies` (O(|N|*|C|)). The model must outlive
  /// the cache.
  UtilityCache(const GameModel& model, const StrategyMatrix& strategies);

  const GameModel& model() const noexcept { return *model_; }

  /// Raw U_i(S) of the tracked matrix: detail::raw_utility over the loads
  /// the user sees (perceived under a topology, else the column sums),
  /// bit-identical to GameModel::raw_utility. O(occupied channels).
  double utility(UserId user) const {
    const RadioCount* seen = topology_ != nullptr
                                 ? perceived_.data() + user * num_channels_
                                 : tracked_->channel_loads().data();
    return detail::raw_utility(
        *tracked_, user,
        [this](ChannelId c, RadioCount load) { return model_->rate(c, load); },
        model_->radio_cost(), [seen](ChannelId c) { return seen[c]; });
  }

  /// Social welfare, O(1).
  double welfare() const noexcept { return welfare_; }

  /// Users with at least one radio on `channel`, O(1).
  std::size_t occupant_count(ChannelId channel) const {
    return occupant_count_[channel];
  }

  /// The load `user` sees on `channel`: the perceived load P_user(channel)
  /// under a topology, else the global column sum. O(1) and unchecked —
  /// the LoadAt accessor the dynamics driver's cached deviation scans read.
  RadioCount load_seen(UserId user, ChannelId channel) const noexcept {
    if (topology_ != nullptr) {
      return perceived_[user * num_channels_ + channel];
    }
    return tracked_->channel_loads()[channel];
  }

  /// Running count of the per-user utilities the changes so far moved:
  /// per changed channel, the mover plus every occupant whose per-radio
  /// share changed (single collision domain), or the mover's closed
  /// neighborhood (topology) — the operation-count witness that a
  /// sparse-graph activation touches only O(degree) users. Counted from
  /// occupant_count(); nothing is rewritten per occupant.
  std::size_t reprice_touches() const noexcept { return reprice_touches_; }

  // --- Dirty-channel scan pruning -----------------------------------------

  /// What a deviation rescan of a user must cover.
  enum class ScanPlan {
    kSkip,           ///< provably nothing to find: O(1) no-op activation
    kFull,           ///< no valid memo — scan every candidate
    kDirtyChannels,  ///< rescan only candidates touching the listed channels
  };

  /// Turns the scan bookkeeping on (idempotent; every user starts with no
  /// memo). Off by default: the epoch/bitmask updates cost a branch per
  /// reprice, and only a pruning driver reads them.
  void enable_scan_pruning();
  bool scan_pruning_enabled() const noexcept { return scan_pruning_; }

  /// Decides how much of `user`'s next deviation scan is provably
  /// redundant. On kDirtyChannels, `dirty` holds the ascending channels
  /// whose load (as `user` sees it) changed since the user's last
  /// completed no-change scan; on every other plan it is left empty.
  /// kSkip increments scan_skips().
  ScanPlan plan_scan(UserId user, std::vector<ChannelId>& dirty);

  /// Records the outcome of a completed scan of `user`: changed=false
  /// certifies "no candidate above tolerance" (the memo future plans prune
  /// against); changed=true voids the user's memo (their own row moved, so
  /// second-best candidates are live again). Call AFTER applying the
  /// user's change, if any.
  void note_scan(UserId user, bool changed);

  /// Activations resolved as O(1) no-ops by plan_scan — the operation-count
  /// witness for dirty-channel pruning, sibling to reprice_touches().
  std::uint64_t scan_skips() const noexcept { return scan_skips_; }

  // Mutations: forward to `strategies` and update the cached values.
  // `strategies` must be the matrix this cache was built on (or last
  // rebuilt from) — the PAIRING GUARD enforces it: every mutator compares
  // the matrix address against the tracked one and throws std::logic_error
  // on a mismatch, because updating cached values against a different
  // same-shape matrix would corrupt them silently. Budget checks use the
  // model's PER-USER budgets, not just the matrix cap.
  void add_radio(StrategyMatrix& strategies, UserId user, ChannelId channel);
  void remove_radio(StrategyMatrix& strategies, UserId user, ChannelId channel);
  void move_radio(StrategyMatrix& strategies, UserId user, ChannelId from,
                  ChannelId to);
  void set_row(StrategyMatrix& strategies, UserId user,
               std::span<const RadioCount> new_row);
  /// Applies one single-radio change (move / deploy / park) — the mutator
  /// every dynamics engine commits its decisions through.
  void apply(StrategyMatrix& strategies, const SingleChange& change);

  /// Recomputes everything from scratch and re-pairs the cache with
  /// `strategies`. O(|N|*|C| + nnz) globally, O(|N|*|C| + nnz*degree)
  /// under a topology, nnz = occupied (user, channel) pairs. Voids every
  /// scan memo; scan_skips()/reprice_touches() keep counting.
  void rebuild(const StrategyMatrix& strategies);

  /// Absolute disagreement between the incremental welfare and a full
  /// recompute — diagnostic for drift tests.
  double welfare_drift(const StrategyMatrix& strategies) const;

 private:
  /// The pairing guard behind every mutator.
  void check_tracked(const StrategyMatrix& strategies) const;
  /// Welfare (and, under a topology, neighborhood perceived-load) update
  /// for one channel whose load changes by `delta` radios of `user` (the
  /// energy price of the delta is folded in). Must run BEFORE the matrix
  /// mutation (it reads the old counts).
  void reprice_channel(const StrategyMatrix& strategies, UserId user,
                       ChannelId channel, RadioCount delta);
  /// Voids every user's scan memo (no-op unless pruning is enabled).
  void reset_scan_state();
  RadioCount& perceived(UserId user, ChannelId channel) {
    return perceived_[user * num_channels_ + channel];
  }

  /// Channels >= 63 share the top dirty-mask bit; a mask with it set can
  /// only plan a full rescan.
  static constexpr ChannelId kMaskOverflowBit = 63;
  static constexpr std::uint64_t kAllDirty = ~std::uint64_t{0};
  static std::uint64_t mask_bit(ChannelId channel) noexcept {
    return std::uint64_t{1} << (channel < kMaskOverflowBit
                                    ? channel
                                    : kMaskOverflowBit);
  }

  const GameModel* model_;
  const Topology* topology_ = nullptr;  ///< model's graph; null = global
  const StrategyMatrix* tracked_ = nullptr;  ///< the paired matrix
  std::size_t num_channels_ = 0;
  double welfare_ = 0.0;
  // occupant_count_[c]: users with k_{i,c} > 0.
  std::vector<std::size_t> occupant_count_;
  // Maintained only under a topology: perceived_[i*|C|+c] = P_i(c).
  std::vector<RadioCount> perceived_;
  std::size_t reprice_touches_ = 0;

  // Scan-pruning state (see the class comment). Global domain: change
  // epoch / per-channel stamps / per-user last-clean-scan stamps (0 =
  // never). Topology domain: per-user dirty bitmasks.
  bool scan_pruning_ = false;
  std::uint64_t scan_skips_ = 0;
  std::uint64_t change_epoch_ = 1;
  std::vector<std::uint64_t> channel_epoch_;
  std::vector<std::uint64_t> last_clean_scan_;
  std::vector<std::uint64_t> dirty_mask_;
};

}  // namespace mrca
