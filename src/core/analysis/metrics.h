// The pluggable analysis API over the unified GameModel: a Metric is a
// named bundle of columns computed from one finished run — (model, start,
// dynamics result) — and a MetricSet is the ordered collection the sweep
// engine evaluates per cell and serializes as dynamic columns.
//
// This is the ONE seam a new analysis plugs into (mirroring the
// ScenarioSpec plug-in pattern for games): implement a compute function,
// register it in a MetricSet, and every writer (CSV/JSON/table) and the
// CLI's --metrics flag pick it up with no per-metric plumbing through
// run_sweep. Built-ins cover the paper's headline analyses — Nash
// verification (Definition 1), single-move stability, the Theorem 1
// predicate (with exact fallback outside its homogeneity regime), price of
// anarchy, welfare efficiency, Pareto checks, fairness, and the §3
// distributed protocol — each model-generic, so they run for energy/het/
// budget scenarios too.
//
// Determinism contract: a compute function must be a pure function of its
// MetricContext. Stochastic metrics draw ONLY from an Rng seeded with
// `context.seed` (a pure function of the sweep's task coordinates), so
// sweep output stays bit-identical at any thread count. A column value of
// NaN means "undefined for this run" — the aggregation layer skips the
// sample and the JSON writer serializes the aggregate honestly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/alloc/best_response.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// Cell-scoped memo for model-only metric values. Some metric columns are
/// pure functions of the MODEL (poa's exact-fallback equilibrium is the
/// expensive one): every replicate of a cell would recompute the identical
/// value. The sweep session shares one cache per cell across its
/// replicates; replicates run on different workers, so the memo is
/// thread-safe (the first caller computes under the lock, the rest read).
/// Determinism is free: the memoized value is the same pure function of the
/// model whichever replicate computes it first.
class CellMetricCache {
 public:
  /// Returns the cached value for `key`, computing it (under the lock —
  /// concurrent replicates block rather than duplicate the work) on first
  /// use.
  double memoize(const std::string& key,
                 const std::function<double()>& compute) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = values_.find(key);
    if (it == values_.end()) it = values_.emplace(key, compute()).first;
    return it->second;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return values_.size();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::map<std::string, double> values_;
};

/// Everything one metric evaluation may read.
struct MetricContext {
  MetricContext(const GameModel& model_in, const StrategyMatrix& start_in,
                const DynamicsResult& dynamics_in, std::uint64_t seed_in = 0)
      : model(model_in), start(start_in), dynamics(dynamics_in),
        seed(seed_in) {}

  /// The cell's game model (scenario axes resolved).
  const GameModel& model;
  /// The run's starting allocation (e.g. for replaying the distributed
  /// protocol against the same initial conditions the dynamics saw).
  const StrategyMatrix& start;
  /// The finished dynamics run; `dynamics.final_state` is the converged
  /// (or budget-exhausted) allocation most metrics score. It must be the
  /// run from `start` on `model`: `convergence` reads a canonical run's
  /// own record (DynamicsResult::canonical_best_response) in place of
  /// replaying best-response play from `start`, and the verdicts read the
  /// run's own proof (DynamicsResult::proof) in place of their checks.
  const DynamicsResult& dynamics;
  /// Pure per-run seed for stochastic metrics.
  std::uint64_t seed;

  /// Cell-scoped memo shared by every replicate of the cell, or null when
  /// the caller evaluates contexts standalone. Set by the sweep session.
  const CellMetricCache* cell_cache = nullptr;

  /// Memoizes a MODEL-ONLY value in the cell cache (computed once per cell
  /// no matter how many replicates ask); computes inline when no cache is
  /// attached. `compute` must be a pure function of `model` — anything
  /// depending on the run's start, dynamics or seed must NOT go through
  /// here, or replicates would share a value that should differ.
  double model_value(const std::string& key,
                     const std::function<double()>& compute) const {
    return cell_cache ? cell_cache->memoize(key, compute) : compute();
  }

  /// The exact Definition-1 verdict on `dynamics.final_state`, shared by
  /// `nash` and `theorem1`'s exact fallback. A run that proved it
  /// (StabilityProof::kNash: converged best response at `best`
  /// granularity, tolerance at most the default, topology or not) is
  /// read; any other run pays for one DP scan per context, however many
  /// metrics ask.
  bool final_state_is_nash() const {
    if (dynamics.proof == StabilityProof::kNash) return true;
    if (!nash_verdict_) {
      nash_verdict_ = model.is_nash_equilibrium(dynamics.final_state);
    }
    return *nash_verdict_;
  }

 private:
  mutable std::optional<bool> nash_verdict_;
};

/// One named analysis producing a fixed set of columns per run.
struct Metric {
  /// Registry/CLI name, e.g. "poa".
  std::string name;
  /// Column names, globally unique across a MetricSet (they become CSV
  /// headers and JSON keys).
  std::vector<std::string> columns;
  /// Returns exactly columns.size() values; NaN = undefined for this run.
  std::function<std::vector<double>(const MetricContext&)> compute;
  /// True when compute reads `context.dynamics.welfare_trace`: the sweep
  /// session turns on DynamicsOptions::record_welfare_trace for the run
  /// (bookkeeping only — trajectories and Rng draws are unchanged).
  /// Standalone callers must arrange the trace themselves or the metric
  /// honestly reports NaN.
  bool needs_welfare_trace = false;
};

/// An ordered, name-addressable collection of metrics. Copyable (sweeps
/// carry it by value in their spec).
class MetricSet {
 public:
  MetricSet() = default;

  /// The built-in registry: nash, single_move, theorem1, poa, welfare_eff,
  /// pareto, fairness, convergence, distributed, regret,
  /// occupancy_entropy.
  static const std::vector<Metric>& builtins();

  /// Looks up one built-in; throws std::invalid_argument with the list of
  /// known names on a miss (the CLI surfaces this verbatim).
  static const Metric& builtin(const std::string& name);

  /// Parses a comma list of built-in names, e.g. "nash,poa,welfare_eff".
  /// Throws std::invalid_argument on unknown or duplicate names and on
  /// empty items.
  static MetricSet parse_list(const std::string& text);

  /// Registers a metric (built-in or user-defined). Throws
  /// std::invalid_argument on duplicate metric or column names.
  void add(Metric metric);

  bool empty() const noexcept { return metrics_.empty(); }
  std::size_t size() const noexcept { return metrics_.size(); }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// All column names in metric order (the sweep's dynamic header block).
  std::vector<std::string> column_names() const;
  std::size_t num_columns() const noexcept { return num_columns_; }

  /// True when any registered metric reads the run's welfare trace (the
  /// sweep session's cue to record one).
  bool needs_welfare_trace() const noexcept;

  /// Evaluates every metric and returns the flattened column values.
  /// Throws std::logic_error if a compute returns the wrong arity.
  std::vector<double> compute(const MetricContext& context) const;

 private:
  std::vector<Metric> metrics_;
  std::size_t num_columns_ = 0;
};

}  // namespace mrca
