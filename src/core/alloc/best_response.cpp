#include "core/alloc/best_response.h"

#include <stdexcept>
#include <vector>

#include "core/alloc/utility_cache.h"
#include "core/analysis/deviation.h"
#include "core/analysis/deviation_detail.h"
#include "core/dynamics/run_ledger.h"

namespace mrca {
namespace {

/// Per-run scratch: the flat scan kernels, the DP tables and the
/// dirty-channel list are reused across millions of activations with zero
/// per-activation allocation.
struct ScanScratch {
  detail::ScanBuffers buffers;
  std::vector<ChannelId> dirty;
  /// The best-response arm's last computed gain, response.utility -
  /// current; the single-move arms leave it untouched.
  double gain = 0.0;
};

/// Applies the user's response; returns true if the allocation changed.
/// Without pruning plan_scan always answers kFull and note_scan is a
/// no-op, so the unpruned run is this same body scanning every candidate.
/// Single-move granularities scan through the cache's O(1) tracked loads
/// (identical values to the model's accessors, so identical candidates),
/// narrowed to the dirty channels when the plan allows. Best-response
/// granularity has no partial DP — any dirty channel means a full oracle
/// run — so it only benefits from kSkip, which is where the per-user DP
/// cost actually lives at scale.
bool activate(const GameModel& model, StrategyMatrix& strategies, UserId user,
              const DynamicsOptions& options, Rng* rng, UtilityCache& cache,
              ScanScratch& scratch) {
  const UtilityCache::ScanPlan plan = cache.plan_scan(user, scratch.dirty);
  if (plan == UtilityCache::ScanPlan::kSkip) {
    // Proven no-op: the user's last completed scan found nothing above
    // tolerance and nothing it saw has changed since. No Rng is drawn —
    // the full scan's improving set would be empty too.
    return false;
  }
  const auto rate_at = [&](ChannelId c, RadioCount load) {
    return model.rate(c, load);
  };
  const auto load_at = [&](ChannelId c) { return cache.load_seen(user, c); };
  const std::vector<ChannelId>* dirty =
      plan == UtilityCache::ScanPlan::kDirtyChannels ? &scratch.dirty
                                                     : nullptr;
  switch (options.granularity) {
    case ResponseGranularity::kBestResponse: {
      // Raw units on both sides (cache tracks raw; the DP is weight-free):
      // weighted models walk bit-identical trajectories to the base game.
      const double current = cache.utility(user);
      const BestResponse response = detail::best_response(
          strategies, user, static_cast<std::size_t>(model.budget(user)),
          rate_at, model.radio_cost(), load_at, scratch.buffers);
      scratch.gain = response.utility - current;
      const bool improved = response.utility > current + options.tolerance;
      if (improved) cache.set_row(strategies, user, response.strategy);
      cache.note_scan(user, improved);
      return improved;
    }
    case ResponseGranularity::kBestSingleMove: {
      const bool has_spare =
          strategies.user_total(user) < model.budget(user);
      const auto change = detail::best_single_change(
          strategies, user, options.tolerance, rate_at, model.radio_cost(),
          has_spare, load_at, dirty, scratch.buffers);
      if (change) cache.apply(strategies, *change);
      cache.note_scan(user, change.has_value());
      return change.has_value();
    }
    case ResponseGranularity::kRandomImprovingMove: {
      // A pruned scan lists EXACTLY the candidates above tolerance the
      // full scan would, in the same order — so the uniform draw below
      // sees the same set and consumes the same Rng stream.
      const bool has_spare =
          strategies.user_total(user) < model.budget(user);
      const std::vector<SingleChange> improving = detail::improving_changes(
          strategies, user, options.tolerance, rate_at, model.radio_cost(),
          has_spare, load_at, dirty, scratch.buffers);
      if (improving.empty()) {
        cache.note_scan(user, false);
        return false;
      }
      cache.apply(strategies, improving[rng->index(improving.size())]);
      cache.note_scan(user, true);
      return true;
    }
  }
  throw std::logic_error("run_response_dynamics: unknown granularity");
}

}  // namespace

DynamicsResult run_response_dynamics(const GameModel& model,
                                     const StrategyMatrix& start,
                                     const DynamicsOptions& options,
                                     Rng* rng) {
  RunLedger ledger(model, start, options, RunLedger::Cache::kKept);
  if ((options.order == ActivationOrder::kUniformRandom ||
       options.granularity == ResponseGranularity::kRandomImprovingMove) &&
      rng == nullptr) {
    throw std::invalid_argument(
        "run_response_dynamics: this configuration requires an Rng");
  }
  const std::size_t users = model.config().num_users;
  ledger.set_canonical_best_response(
      options.granularity == ResponseGranularity::kBestResponse &&
      options.order == ActivationOrder::kRoundRobin &&
      options.tolerance == kUtilityTolerance);
  StrategyMatrix& state = ledger.state();
  UtilityCache& cache = ledger.cache();
  if (options.use_dirty_channel_pruning) cache.enable_scan_pruning();
  ScanScratch scratch;

  // One counted activation of `user`; true when it improved.
  const auto step = [&](UserId user) {
    ledger.count_activation();
    if (!activate(model, state, user, options, rng, cache, scratch)) {
      return false;
    }
    ledger.improved();
    if (scratch.gain >= kEpsilonNe) ledger.mark_eps_ne();
    return true;
  };

  // A streak of `users` quiet activations ends the run as converged: in
  // round-robin order that streak is a full pass, already an exact
  // stability proof; in random order an exact verification pass over every
  // user must find no improvement first. Either way `converged` is a proof.
  std::size_t quiet_streak = 0;
  UserId next_user = 0;
  while (ledger.within_budget()) {
    const UserId user = options.order == ActivationOrder::kRoundRobin
                            ? next_user
                            : static_cast<UserId>(rng->index(users));
    next_user = (next_user + 1) % users;
    if (step(user)) {
      quiet_streak = 0;
      continue;
    }
    if (++quiet_streak < users) continue;
    bool improved = false;
    if (options.order == ActivationOrder::kUniformRandom) {
      for (UserId verify = 0; verify < users && !improved; ++verify) {
        improved = step(verify);
      }
    }
    if (!improved) {
      ledger.converge();
      break;
    }
    quiet_streak = 0;
  }
  return ledger.finish();
}

}  // namespace mrca
