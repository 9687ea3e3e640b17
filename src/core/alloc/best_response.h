// Better- / best-response dynamics: selfish users repeatedly deviating from
// an arbitrary starting allocation.
//
// The paper reaches its NE with a centralized sequential algorithm and
// leaves distributed play as future work; this engine studies what actually
// happens when users keep deviating on their own. The driver runs against
// the unified GameModel, so one cache-accelerated implementation serves the
// homogeneous base game AND every extension (heterogeneous channels,
// per-user radio budgets, energy-priced utilities). Two granularities:
//   - kBestResponse: the user jumps to an exact best response (DP oracle);
//   - kBestSingleMove: the user applies the best single-radio change
//     (move/deploy/park) — the "local" dynamics the paper's lemmas analyze.
// Convergence is declared when a full pass over all users finds no
// improvement above tolerance.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

enum class ResponseGranularity {
  /// Jump to the exact best response (DP oracle).
  kBestResponse,
  /// Apply the single-radio change with the largest benefit.
  kBestSingleMove,
  /// Apply a uniformly random strictly-improving single-radio change —
  /// classic better-response play; the weakest (hence most demanding)
  /// convergence test of the finite-improvement property. Requires an Rng.
  kRandomImprovingMove,
};
enum class ActivationOrder { kRoundRobin, kUniformRandom };

struct DynamicsOptions {
  ResponseGranularity granularity = ResponseGranularity::kBestResponse;
  ActivationOrder order = ActivationOrder::kRoundRobin;
  /// Give up after this many user activations without convergence.
  std::size_t max_activations = 100000;
  double tolerance = kUtilityTolerance;
  /// Record welfare after every improving step (for convergence plots).
  bool record_welfare_trace = false;
  /// Dirty-channel scan pruning: consult UtilityCache::plan_scan before
  /// each activation and skip — or narrow to the changed channels — every
  /// deviation scan the cache's memo proves redundant. Trajectories are
  /// bit-identical to the unpruned run (regression-tested per scenario
  /// kind); off scans every candidate, the reference the pruning tests
  /// compare against.
  /// DynamicsResult::scan_skips is the operation-count witness.
  bool use_dirty_channel_pruning = true;
};

/// What a finished run proved about its final state, at the default
/// tolerance kUtilityTolerance. Each proof stands alone: the DP's utilities
/// and the single-change benefits round differently, so a Nash proof does
/// not claim single-move stability.
enum class StabilityProof : std::uint8_t {
  kNone,
  /// is_single_move_stable(model, final_state) holds.
  kSingleMove,
  /// model.is_nash_equilibrium(final_state) holds.
  kNash,
};

struct DynamicsResult {
  bool converged = false;
  /// Total user activations performed (including non-improving ones).
  std::size_t activations = 0;
  /// Activations that changed the allocation.
  std::size_t improving_steps = 0;
  StrategyMatrix final_state;
  std::vector<double> welfare_trace{};
  /// Activations resolved as proven O(1) no-ops by dirty-channel pruning
  /// (0 on unpruned runs).
  std::size_t scan_skips = 0;
  /// Per-user utility updates performed by cache repricing.
  std::size_t reprice_touches = 0;
  /// Activation index of the last improving step whose gain
  /// `response.utility - current` reached kEpsilonNe (0 when none did):
  /// the run's own epsilon-NE time. Recorded at best-response granularity
  /// only.
  std::size_t eps_ne_activation = 0;
  /// True when the run was round-robin exact best response at the default
  /// tolerance — the deterministic play the `convergence` metric would
  /// replay from the same start, which may therefore read
  /// eps_ne_activation instead (metrics.h). Only run_response_dynamics
  /// sets it.
  bool canonical_best_response = false;
  /// What the run proved about final_state when it stopped, so the
  /// verdict metrics read the proof instead of repeating the check
  /// (metrics.h). Only RunLedger writes it (mrca_lint R10).
  StabilityProof proof = StabilityProof::kNone;
};

/// Runs the dynamics from `start` until stable or the activation budget is
/// exhausted. `rng` is required for ActivationOrder::kUniformRandom. This
/// is THE best-response implementation: every game the library models
/// runs through it, utilities and welfare maintained by a UtilityCache.
DynamicsResult run_response_dynamics(const GameModel& model,
                                     const StrategyMatrix& start,
                                     const DynamicsOptions& options = {},
                                     Rng* rng = nullptr);

}  // namespace mrca
