// Distributed channel allocation — the paper's announced "ongoing work"
// (§3: "The development of a distributed implementation is an important
// part of our ongoing work."), implemented here as an extension.
//
// Protocol (synchronous rounds, no coordinator):
//   Each round, every user independently activates with probability p.
//   An active user computes its best single-radio change against the loads
//   OBSERVED AT THE START OF THE ROUND (stale information — all active
//   users move simultaneously, as real radios would), then applies it.
//   The process stops when a round with every user active would make no
//   change (checked exactly), or after max_rounds.
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
#pragma once

#include "common/rng.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

struct DistributedOptions {
  double activation_probability = 0.3;
  std::size_t max_rounds = 10000;
  double tolerance = kUtilityTolerance;
};

struct DistributedResult {
  bool converged = false;
  std::size_t rounds = 0;
  /// Total radio changes applied across all rounds.
  std::size_t total_moves = 0;
  StrategyMatrix final_state;
};

DistributedResult run_distributed_allocation(const GameModel& model,
                                             const StrategyMatrix& start,
                                             const DistributedOptions& options,
                                             Rng& rng);

}  // namespace mrca
