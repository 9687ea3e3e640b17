// Streaming sweep sessions: the execution API behind the batch engine.
//
// run_sweep's original shape — one blocking call that pre-allocates every
// run slot and returns the whole aggregate — cannot split a sweep across
// processes, stream results to disk, or show progress mid-flight. This
// header decomposes it into three first-class pieces:
//
//   SweepPlan   the expanded, validated grid as a value. shard(i, n)
//               partitions the plan into contiguous cell ranges over the
//               FIXED expansion order; cell indices stay absolute, so every
//               run's seed remains a pure function of (base_seed, absolute
//               cell, replicate) and no shard ever re-derives — or
//               collides with — another shard's seed streams.
//   RunRecord   one immutable finished (cell, replicate) task: coordinates,
//               seed, dynamics outcome, scenario / metric / sim-tier
//               columns. What a sink consumes; what the JSONL stream
//               serializes.
//   RunSink     a streaming consumer. run_session executes a plan (or
//               shard) across the worker pool and delivers records to the
//               sinks IN TASK ORDER, serialized — so every sink sees one
//               deterministic stream at any thread count, and a sink that
//               writes records through as they arrive (engine/sinks.h
//               RecordSink) holds O(reorder window) memory, independent of
//               how many runs the sweep has.
//
// The shard-merge path closes the loop: merge_sweep_results recombines
// shard aggregates into the exact SweepResult a non-sharded run would have
// produced (byte-identical through every writer).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/sweep.h"

namespace mrca::engine {

/// The expanded, validated grid as a first-class value, plus a contiguous
/// cell range selecting which slice of it this plan executes. Cheap to
/// copy: the spec and the full expansion are shared immutably between a
/// plan and all its shards.
class SweepPlan {
 public:
  /// Validates the spec (replicates >= 1, sane sim tier) and expands the
  /// grid once. Throws std::invalid_argument on a bad spec.
  static SweepPlan build(const SweepSpec& spec);

  const SweepSpec& spec() const noexcept { return *spec_; }
  /// The FULL expansion, shared by every shard; cells()[i].index == i.
  const std::vector<SweepSpec::Cell>& cells() const noexcept {
    return *cells_;
  }

  /// This plan's contiguous absolute cell range [cell_begin, cell_end).
  std::size_t cell_begin() const noexcept { return begin_; }
  std::size_t cell_end() const noexcept { return end_; }
  std::size_t num_cells() const noexcept { return end_ - begin_; }
  /// Tasks this plan executes: num_cells() * replicates.
  std::size_t num_runs() const noexcept {
    return num_cells() * spec_->replicates;
  }

  /// Size of the full expansion / the full task set, shard-invariant.
  std::size_t total_cells() const noexcept { return cells_->size(); }
  std::size_t total_runs() const noexcept {
    return total_cells() * spec_->replicates;
  }

  /// True when the plan covers the whole expansion.
  bool is_full() const noexcept {
    return begin_ == 0 && end_ == total_cells();
  }

  /// Shard i/n (0-based index, 1 <= n, i < n) of THIS plan's range:
  /// deterministic contiguous partition [begin + len*i/n, begin +
  /// len*(i+1)/n). The n shards are disjoint and their union is exactly
  /// this plan; a shard may be empty when n exceeds the cell count.
  /// Composable — sharding a shard subdivides its range.
  SweepPlan shard(std::size_t index, std::size_t count) const;

  /// The sub-plan covering ABSOLUTE cell range [begin, end). Requires
  /// cell_begin() <= begin <= end <= cell_end(); throws
  /// std::invalid_argument otherwise. Unlike shard(), the range is chosen
  /// by the caller — this is how the farm re-plans the exact missing
  /// ranges of an interrupted session. The result reports shard (0, 1):
  /// an explicit range is not a member of any i/n partition.
  SweepPlan slice(std::size_t begin, std::size_t end) const;

  /// The (index, count) of the most recent shard() call, (0, 1) for a full
  /// plan — display only; the cell range is the authoritative identity.
  std::size_t shard_index() const noexcept { return shard_index_; }
  std::size_t shard_count() const noexcept { return shard_count_; }

 private:
  SweepPlan(std::shared_ptr<const SweepSpec> spec,
            std::shared_ptr<const std::vector<SweepSpec::Cell>> cells,
            std::size_t begin, std::size_t end);

  std::shared_ptr<const SweepSpec> spec_;
  std::shared_ptr<const std::vector<SweepSpec::Cell>> cells_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;
};

/// One finished (cell, replicate) task, immutable once delivered. Plain
/// values only, so records can cross thread / process / file boundaries.
///
/// Every double column below, every metric value and every sim-tier value
/// follows one rule: NaN means "undefined for this run" (an unknown
/// optimum, zero welfare, a non-topology cell, a metric with no defined
/// value) and aggregation skips it, so a cell's `count()` reports how many
/// runs had a defined value and its means stay honest.
struct RunRecord {
  /// The cell's coordinates; `cell.index` is ABSOLUTE in the full plan.
  SweepSpec::Cell cell;
  std::size_t replicate = 0;
  /// The run's RNG seed (derive_run_seed) — recorded so any single run can
  /// be reproduced standalone from its JSONL row.
  std::uint64_t seed = 0;

  bool converged = false;
  double activations = 0.0;
  double improving_steps = 0.0;
  /// Dirty-channel pruning witnesses (DynamicsResult::scan_skips /
  /// reprice_touches): always-defined counters, 0 for engines or paths
  /// that run no utility cache.
  double scan_skips = 0.0;
  double reprice_touches = 0.0;
  double welfare = 0.0;
  /// NaN when the model's optimum is unknown (weighted models beyond the
  /// one-radio-per-channel regime).
  double efficiency = 0.0;
  /// NaN when undefined (non-positive welfare or unknown optimum).
  double anarchy_ratio = 0.0;
  double fairness = 0.0;
  double load_imbalance = 0.0;
  double deployed = 0.0;
  double per_radio_spread = 0.0;
  double budget_fairness = 0.0;
  /// Topology columns; NaN for non-topology cells.
  double coloring_bound = 0.0;
  double max_degree = 0.0;
  /// welfare / coloring_bound (the graph-aware efficiency reference).
  double graph_efficiency = 0.0;
  /// Flattened metric column values (empty when the spec has no metrics).
  std::vector<double> metric_values;
  /// One entry per DES replay (empty when the spec has no sim tier).
  std::vector<SimTierOutcome> sim;
};

/// The built-in record columns, described once. Aggregation, shard merge,
/// the JSONL record stream and the sweep JSON writer and reader all loop
/// over these tables in this order (which is also the key order of every
/// JSON output). `name` is the JSONL key and the cell's stats key.
struct RecordColumn {
  const char* name;
  double RunRecord::*sample;
  RunningStats CellResult::*stats;
};

inline constexpr RecordColumn kRecordColumns[] = {
    {"activations", &RunRecord::activations, &CellResult::activations},
    {"improving_steps", &RunRecord::improving_steps,
     &CellResult::improving_steps},
    {"scan_skips", &RunRecord::scan_skips, &CellResult::scan_skips},
    {"reprice_touches", &RunRecord::reprice_touches,
     &CellResult::reprice_touches},
    {"welfare", &RunRecord::welfare, &CellResult::welfare},
    {"efficiency", &RunRecord::efficiency, &CellResult::efficiency},
    {"anarchy_ratio", &RunRecord::anarchy_ratio, &CellResult::anarchy_ratio},
    {"fairness", &RunRecord::fairness, &CellResult::fairness},
    {"load_imbalance", &RunRecord::load_imbalance,
     &CellResult::load_imbalance},
    {"deployed", &RunRecord::deployed, &CellResult::deployed},
    {"per_radio_spread", &RunRecord::per_radio_spread,
     &CellResult::per_radio_spread},
    {"budget_fairness", &RunRecord::budget_fairness,
     &CellResult::budget_fairness},
    {"coloring_bound", &RunRecord::coloring_bound,
     &CellResult::coloring_bound},
    {"max_degree", &RunRecord::max_degree, &CellResult::max_degree},
    {"graph_efficiency", &RunRecord::graph_efficiency,
     &CellResult::graph_efficiency},
};

/// The sim-tier columns: one sample per DES replay. `name` is the key
/// inside a JSONL record's "sim" objects; the cell's stats key is
/// "sim_" + name.
struct SimColumn {
  const char* name;
  double SimTierOutcome::*sample;
  RunningStats CellResult::*stats;
};

inline constexpr SimColumn kSimColumns[] = {
    {"total_bps", &SimTierOutcome::total_bps, &CellResult::sim_total_bps},
    {"gap", &SimTierOutcome::throughput_gap, &CellResult::sim_gap},
    {"fairness", &SimTierOutcome::fairness, &CellResult::sim_fairness},
    {"imbalance", &SimTierOutcome::channel_imbalance,
     &CellResult::sim_imbalance},
};

/// Streaming consumer of finished runs. run_session guarantees:
///   - begin() once, before any task executes;
///   - consume() exactly once per task, IN TASK ORDER (cell-major,
///     replicate-minor over the plan's range), never concurrently —
///     implementations need no locking;
///   - finish() once, after the last consume(), when no task failed.
/// A sink that throws aborts the session (the exception propagates to the
/// run_session caller).
class RunSink {
 public:
  virtual ~RunSink() = default;
  virtual void begin(const SweepPlan& plan) { (void)plan; }
  virtual void consume(const RunRecord& record) = 0;
  virtual void finish() {}
};

struct SessionOptions {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t threads = 1;
};

struct SessionStats {
  /// Tasks executed (== plan.num_runs() on success).
  std::size_t runs = 0;
  std::size_t threads_used = 1;
  /// High-water mark of finished-but-undelivered records held by the
  /// in-order delivery buffer — the streaming peak-memory witness. HARD-
  /// bounded by the reorder window (max(32, 4·workers); backpressure
  /// keeps any worker from running further ahead of the delivery
  /// frontier), so it is independent of cell and replicate counts under
  /// any scheduling (perfbench records it as session.max_buffered).
  std::size_t max_buffered = 0;
};

/// Executes every (cell, replicate) task of the plan's range across the
/// worker pool and streams the records to every sink in task order.
/// Per-cell models are built once and shared read-only across replicates;
/// metric evaluation gets a cell-scoped memo so model-only values are
/// computed once per cell.
SessionStats run_session(const SweepPlan& plan,
                         const std::vector<RunSink*>& sinks,
                         const SessionOptions& options = {});
SessionStats run_session(const SweepPlan& plan, RunSink& sink,
                         const SessionOptions& options = {});

/// Recombines shard results into the single SweepResult the full run would
/// have produced — byte-identical through every writer, because disjoint
/// shards never split a cell, so recombination is validation plus
/// concatenation in absolute cell order. Requires: at least one shard, all
/// fingerprints/metric columns/cells_total equal, and the shard ranges
/// form an EXACT partition of [0, cells_total) — anything else (overlap,
/// gap, foreign spec) throws std::invalid_argument naming the mismatch.
SweepResult merge_sweep_results(const std::vector<SweepResult>& shards);

}  // namespace mrca::engine
