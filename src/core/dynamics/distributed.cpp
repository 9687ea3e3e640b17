// Distributed channel allocation — the paper's announced "ongoing work"
// (§3: "The development of a distributed implementation is an important
// part of our ongoing work."), implemented here as an extension.
//
// Protocol (synchronous rounds, no coordinator):
//   Each round, every user independently activates with probability p
//   (spec.activation_probability). An active user computes its best
//   single-radio change against the loads OBSERVED AT THE START OF THE
//   ROUND (stale information — all active users move simultaneously, as
//   real radios would), then applies it. The process stops when a round
//   with every user active would make no change (checked exactly), or
//   after options.max_activations rounds: one protocol round is one
//   activation in the portfolio's accounting, and every applied change is
//   one improving step.
//
// With p = 1 users can oscillate in lockstep (classic load-balancing
// herding); small p trades convergence speed for stability.
// experiments/convergence_distributed sweeps p.
//
// The protocol runs against the unified GameModel, so it covers every
// scenario axis (per-channel rates, per-user budgets, energy price): an
// active user's best single change may deploy a spare radio or park one,
// budget- and cost-aware, through the same shared deviation scanner as the
// centralized dynamics.

#include <vector>

#include "core/dynamics/run_ledger.h"

namespace mrca {

DynamicsResult run_distributed_dynamics(const DynamicsSpec& spec,
                                        const GameModel& model,
                                        const StrategyMatrix& start,
                                        const DynamicsOptions& options,
                                        Rng& rng) {
  RunLedger ledger(model, start, options, RunLedger::Cache::kNone);
  const StrategyMatrix& state = ledger.state();
  const std::size_t users = model.config().num_users;
  std::vector<SingleChange> planned;
  planned.reserve(users);
  while (ledger.within_budget()) {
    ledger.count_activation();
    // Termination test against the *current* state: if nobody has an
    // improving single change, the protocol is stable regardless of who
    // activates.
    if (ledger.stable()) break;
    // Plan phase: all active users decide against the same stale snapshot,
    // scanned with the stability check's scratch.
    planned.clear();
    for (UserId user = 0; user < users; ++user) {
      if (!rng.bernoulli(spec.activation_probability)) continue;
      const auto change = model.best_single_change(
          state, user, options.tolerance, ledger.stability().buffers());
      if (change) planned.push_back(*change);
    }
    // Commit phase: apply simultaneously-decided changes. A planned change
    // is always applicable: it only touches the planning user's own radios,
    // within their own budget (a deploy is only proposed with a spare).
    for (const SingleChange& change : planned) {
      ledger.apply(change);
      ledger.improved();
    }
  }
  // A run cut by the budget still reports whether it ended stable.
  if (!ledger.converged()) ledger.stable();
  return ledger.finish();
}

}  // namespace mrca
