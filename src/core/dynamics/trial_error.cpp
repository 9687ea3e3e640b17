// Payoff-based trial-and-error learning (Bistritz–Leshem style): no
// deviation oracle, no observed loads, no benefit scan. An activated user
// occasionally experiments with one uniformly random feasible single-radio
// change, observes only its OWN realized utility after the change, keeps
// the change if it improved and reverts otherwise.
//
// This is the weakest information model in the portfolio — the learner
// never evaluates a candidate it did not physically try — yet accepted
// experiments strictly improve the experimenter's utility, so on the
// potential landscape the process is a (randomized, lazy) better-response
// walk: single-move-stable states are absorbing, and the periodic exact
// stability check below (which draws no randomness) turns that into an
// honest `converged` verdict.

#include <vector>

#include "core/dynamics/run_ledger.h"

namespace mrca {
namespace {

/// The exact undo of a change just applied: experiments that did not pay
/// off are physically reverted, not rolled back through saved state.
SingleChange inverse_of(const SingleChange& change) {
  SingleChange undo = change;
  switch (change.kind) {
    case SingleChange::Kind::kMove:
      undo.from = change.to;
      undo.to = change.from;
      break;
    case SingleChange::Kind::kDeploy:
      undo.kind = SingleChange::Kind::kPark;
      undo.from = change.to;
      break;
    case SingleChange::Kind::kPark:
      undo.kind = SingleChange::Kind::kDeploy;
      undo.to = change.from;
      break;
  }
  return undo;
}

}  // namespace

DynamicsResult run_trial_error_dynamics(const DynamicsSpec& spec,
                                        const GameModel& model,
                                        const StrategyMatrix& start,
                                        const DynamicsOptions& options,
                                        Rng& rng) {
  RunLedger ledger(model, start, options, RunLedger::Cache::kKept);
  const std::size_t users = model.num_users();
  const std::size_t channels = model.config().num_channels;
  const StrategyMatrix& state = ledger.state();
  const UtilityCache& cache = ledger.cache();
  std::vector<ChannelId> occupied;
  while (ledger.within_budget()) {
    if (ledger.stable_at_checkpoint()) break;
    const UserId user = static_cast<UserId>(rng.index(users));
    ledger.count_activation();
    if (!rng.bernoulli(spec.exploration)) continue;  // content: no trial

    // Enumerate the user's feasible experiments by COUNT only — deploys
    // (one per channel, when a spare radio exists), then per occupied
    // source channel one park and |C|-1 moves — and draw uniformly. The
    // learner evaluates nothing before trying.
    occupied.clear();
    state.for_each_row_entry(
        user, [&](ChannelId c, RadioCount) { occupied.push_back(c); });
    const bool has_spare = state.user_total(user) < model.budget(user);
    const std::size_t deploys = has_spare ? channels : 0;
    const std::size_t total = deploys + occupied.size() * channels;
    if (total == 0) continue;
    const std::size_t pick = rng.index(total);
    SingleChange change;
    change.user = user;
    if (pick < deploys) {
      change.kind = SingleChange::Kind::kDeploy;
      change.to = static_cast<ChannelId>(pick);
    } else {
      const std::size_t rest = pick - deploys;
      const ChannelId source = occupied[rest / channels];
      const std::size_t option = rest % channels;
      if (option == 0) {
        change.kind = SingleChange::Kind::kPark;
        change.from = source;
      } else {
        // Options 1..|C|-1 map to the |C|-1 destinations != source.
        const std::size_t to = option - 1;
        change.kind = SingleChange::Kind::kMove;
        change.from = source;
        change.to = static_cast<ChannelId>(to < source ? to : to + 1);
      }
    }

    const double before = cache.utility(user);
    ledger.apply(change);
    if (cache.utility(user) > before + options.tolerance) {
      ledger.improved();
    } else {
      ledger.apply(inverse_of(change));
    }
  }
  return ledger.finish();
}

}  // namespace mrca
