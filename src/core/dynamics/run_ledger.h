// The run ledger: the bookkeeping every dynamics engine shares, written
// once.
//
// An engine builds one RunLedger from its (model, start, options) and keeps
// only its step rule: who activates, what they play, when the run stops.
// The ledger owns everything else:
//   - the start's validation, the DynamicsResult and its final_state;
//   - the UtilityCache over that state, for engines that keep one (a
//     cache-free engine mutates the matrix directly, so its
//     reprice_touches stays 0);
//   - the welfare trace: the first point, then one point per improving
//     step, from the cache or from GameModel::raw_welfare without one;
//   - the activation budget and the improving-step count;
//   - the run's StabilityCheck behind `converged`, and the learners'
//     "every `users` activations, check" rule;
//   - the proof of stability the run ends with (DynamicsResult::proof),
//     written once, when the run stops, and never anywhere else;
//   - the closing scan_skips/reprice_touches fill.
// A new result field or stop reason is therefore one edit here, not one
// per engine.
//
// The ledger sits in the engines' hot loops, so it is a concrete type
// whose members inline: no virtual call and no type erasure.
//
// This header is internal to the dynamics engines; it also declares the
// three engines behind run_dynamics (engine.h is the public entry point).
#pragma once

#include <optional>
#include <utility>

#include "core/alloc/utility_cache.h"
#include "core/analysis/deviation.h"
#include "core/analysis/nash.h"
#include "core/dynamics/engine.h"  // the DynamicsSpec/Options/Result contract

namespace mrca {

class RunLedger {
 public:
  enum class Cache { kNone, kKept };

  /// Validates `start` (throwing as GameModel::validate does), then opens
  /// the run at it: the cache if kept, and the trace's first point.
  RunLedger(const GameModel& model, const StrategyMatrix& start,
            const DynamicsOptions& options, Cache cache)
      : model_(model),
        options_(options),
        users_(model.num_users()),
        budget_(options.max_activations),
        // The start is validated before it is copied.
        result_{.final_state = (model.validate(start), start)} {
    if (cache == Cache::kKept) cache_.emplace(model, result_.final_state);
    record_welfare();
  }
  // The cache points into this ledger's own state.
  RunLedger(const RunLedger&) = delete;

  StrategyMatrix& state() noexcept { return result_.final_state; }
  /// The run's cache; only for a ledger opened with Cache::kKept.
  UtilityCache& cache() { return *cache_; }
  /// The run's stability check; its scratch serves the engine's own scans
  /// between checks.
  StabilityCheck& stability() noexcept { return stability_; }
  std::size_t activations() const noexcept { return result_.activations; }
  bool converged() const noexcept { return result_.converged; }

  bool within_budget() const noexcept {
    return result_.activations < budget_;
  }
  void count_activation() noexcept { ++result_.activations; }

  /// Applies `change` to the state, through the cache when one is kept.
  void apply(const SingleChange& change) {
    if (cache_) {
      cache_->apply(result_.final_state, change);
      return;
    }
    StrategyMatrix& state = result_.final_state;
    switch (change.kind) {
      case SingleChange::Kind::kMove:
        state.move_radio(change.user, change.from, change.to);
        return;
      case SingleChange::Kind::kDeploy:
        state.add_radio(change.user, change.to);
        return;
      case SingleChange::Kind::kPark:
        state.remove_radio(change.user, change.from);
        return;
    }
  }

  /// Counts the change just made as one improving step, with its trace
  /// point.
  void improved() {
    ++result_.improving_steps;
    record_welfare();
  }
  /// Best response's ε-NE witness: the activation just counted.
  void mark_eps_ne() noexcept {
    result_.eps_ne_activation = result_.activations;
  }
  void set_canonical_best_response(bool canonical) noexcept {
    result_.canonical_best_response = canonical;
  }

  /// The engine's own stability proof: best response's closing pass (the
  /// round-robin quiet streak or the random-order verification pass), in
  /// which every user's scan at the run's granularity found no gain above
  /// tolerance, or kSkip proved the user unchanged since such a scan.
  /// At `best` granularity that pass is is_nash_equilibrium bit for bit
  /// in the single collision domain: the cache's utility is
  /// raw_utility_unchecked, load_seen is the column sum, and the DP is
  /// the same detail::best_response. Under a topology the cached
  /// utilities are incremental, so no Nash proof is claimed there. The
  /// single-change kernels read only integer loads, so their pass is
  /// is_single_move_stable under a topology too.
  void converge() noexcept {
    result_.converged = true;
    if (!proves_default_tolerance()) return;
    if (options_.granularity != ResponseGranularity::kBestResponse) {
      result_.proof = StabilityProof::kSingleMove;
    } else if (!model_.topology()) {
      result_.proof = StabilityProof::kNash;
    }
  }
  /// Asks the run's StabilityCheck; a stable state converges the run.
  /// Every engine that asks stops at a stable state, so the check that
  /// held is is_single_move_stable on the final state.
  bool stable() {
    if (!stability_.holds(model_, result_.final_state, options_.tolerance)) {
      return false;
    }
    result_.converged = true;
    if (proves_default_tolerance()) {
      result_.proof = StabilityProof::kSingleMove;
    }
    return true;
  }
  /// The learners' rule: every `users` activations, ask stable().
  bool stable_at_checkpoint() {
    return result_.activations % users_ == 0 && stable();
  }

  /// Closes the run with the cache's counters and hands the result over.
  DynamicsResult finish() {
    if (cache_) {
      result_.scan_skips = cache_->scan_skips();
      result_.reprice_touches = cache_->reprice_touches();
    }
    return std::move(result_);
  }

 private:
  // No gain above the run's tolerance is no gain above the verdicts'.
  bool proves_default_tolerance() const noexcept {
    return options_.tolerance <= kUtilityTolerance;
  }

  // Raw welfare: the trace measures the spectrum's throughput economy, not
  // the operator's valuation of it.
  void record_welfare() {
    if (!options_.record_welfare_trace) return;
    result_.welfare_trace.push_back(
        cache_ ? cache_->welfare() : model_.raw_welfare(result_.final_state));
  }

  const GameModel& model_;
  const DynamicsOptions& options_;
  // Copied out of model_ and options_ for the hot loops.
  const std::size_t users_;
  const std::size_t budget_;
  DynamicsResult result_;
  std::optional<UtilityCache> cache_;
  StabilityCheck stability_;
};

/// The engines behind run_dynamics besides run_response_dynamics
/// (core/alloc/best_response.h), one signature each. Each takes a spec
/// run_dynamics has validated.
using EngineRun = DynamicsResult(const DynamicsSpec& spec,
                                 const GameModel& model,
                                 const StrategyMatrix& start,
                                 const DynamicsOptions& options, Rng& rng);
EngineRun run_log_linear_dynamics;
EngineRun run_trial_error_dynamics;
EngineRun run_distributed_dynamics;

}  // namespace mrca
