// Algorithm 1 of the paper: centralized sequential allocation that reaches
// a Pareto-optimal Nash equilibrium.
//
//   for i = 1..|N|:
//     for j = 1..k:
//       if all channel loads are equal:  use the radio on a channel with
//                                        k_{i,c} = 0
//       else:                            use the radio on a channel with
//                                        minimal load
//
// The paper leaves ties unspecified; the tie-break policy is pluggable and
// the test suite proves every policy yields a NE from an empty start. The
// allocator also works incrementally (users joining an existing allocation),
// which the cognitive-radio example uses.
#pragma once

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

class UtilityCache;

enum class TieBreak {
  /// Lowest channel index first (fully deterministic; default).
  kLowestIndex,
  /// Uniformly at random among tied channels (needs an Rng).
  kRandom,
};

/// Which channel the next radio goes to. Both rules share the same driver
/// (per-user order, per-radio loop, tie-break policy, cache insertion).
enum class PlacementRule {
  /// The paper's Algorithm 1 rule: a least-loaded channel (all-equal loads
  /// prefer a channel the user does not occupy). Reads only the matrix.
  kLeastLoaded,
  /// Greedy selfish filling: the channel where this radio's marginal
  /// utility share is largest (per-channel rates make this the discrete
  /// water-filling start for heterogeneous bands).
  kBestMarginal,
};

struct SequentialOptions {
  TieBreak tie_break = TieBreak::kLowestIndex;
  /// Order in which users allocate; empty = natural order 0..N-1.
  std::vector<UserId> user_order = {};
  PlacementRule placement = PlacementRule::kLeastLoaded;
};

// The Algorithm 1 placement rule only reads channel loads, so it carries
// over verbatim to every scenario axis: each user deploys their OWN budget
// of radios onto least-loaded channels. For heterogeneous rates this is a
// deterministic load-balancing start (the dynamics then water-fill).

/// Runs the generalized Algorithm 1 from an empty allocation —
/// `options.placement` selects the rule (least-loaded by default, greedy
/// marginal filling for the water-filling start). `rng` may be null unless
/// tie_break == kRandom.
StrategyMatrix sequential_allocation(const GameModel& model,
                                     const SequentialOptions& options = {},
                                     Rng* rng = nullptr);

/// Allocates all budget(user) radios of one user into an existing matrix
/// (the user must currently have no radios). When `cache` is given it must
/// track `strategies`; radios are inserted through it so utilities/welfare
/// stay current with no extra recompute.
void allocate_user_sequentially(const GameModel& model,
                                StrategyMatrix& strategies, UserId user,
                                TieBreak tie_break = TieBreak::kLowestIndex,
                                Rng* rng = nullptr,
                                UtilityCache* cache = nullptr,
                                PlacementRule placement =
                                    PlacementRule::kLeastLoaded);

/// Places a single radio of `user` by `placement`; returns the channel.
ChannelId place_one_radio(const GameModel& model, StrategyMatrix& strategies,
                          UserId user,
                          TieBreak tie_break = TieBreak::kLowestIndex,
                          Rng* rng = nullptr, UtilityCache* cache = nullptr,
                          PlacementRule placement =
                              PlacementRule::kLeastLoaded);

}  // namespace mrca
