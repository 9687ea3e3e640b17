#include "engine/session.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/analysis/efficiency.h"
#include "core/analysis/metrics.h"
#include "core/dynamics/engine.h"
#include "core/strategy.h"
#include "engine/thread_pool.h"

namespace mrca::engine {
namespace {

StrategyMatrix make_start(const GameModel& model, SweepStart start,
                          Rng& rng) {
  switch (start) {
    case SweepStart::kEmpty:
      return model.empty_strategy();
    case SweepStart::kRandomFull:
      return random_full_allocation(model, rng);
    case SweepStart::kRandomPartial:
      return random_partial_allocation(model, rng);
    case SweepStart::kSequentialNe:
      return sequential_allocation(model);
  }
  throw std::logic_error("run_session: unknown start kind");
}

RunRecord run_one(const SweepSpec& spec, const SweepSpec::Cell& cell,
                  const GameModel& model, std::size_t replicate,
                  const CellMetricCache* metric_cache) {
  RunRecord record;
  record.cell = cell;
  record.replicate = replicate;
  record.seed = derive_run_seed(spec.base_seed, cell.index, replicate);
  Rng rng(record.seed);
  const StrategyMatrix start = make_start(model, cell.start, rng);

  DynamicsOptions options;
  options.granularity = cell.granularity;
  options.order = cell.order;
  options.max_activations = spec.max_activations;
  options.tolerance = spec.tolerance;
  // Trace-reading metrics (regret) flip the recorder on; the trace is
  // bookkeeping only, so best_response trajectories and Rng draws are
  // unchanged by it.
  options.record_welfare_trace = spec.metrics.needs_welfare_trace();
  // best_response cells keep drawing from the run's own Rng — the exact
  // pre-axis stream, so default sweeps stay byte-identical. Every other
  // engine draws from its own pure derive_dynamics_seed stream.
  Rng dynamics_rng(
      derive_dynamics_seed(spec.base_seed, cell.index, replicate));
  Rng* engine_rng = cell.dynamics.kind == DynamicsSpec::Kind::kBestResponse
                        ? &rng
                        : &dynamics_rng;
  const DynamicsResult result =
      run_dynamics(cell.dynamics, model, start, options, engine_rng);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  record.converged = result.converged;
  record.activations = static_cast<double>(result.activations);
  record.improving_steps = static_cast<double>(result.improving_steps);
  record.scan_skips = static_cast<double>(result.scan_skips);
  record.reprice_touches = static_cast<double>(result.reprice_touches);
  // One utility pass feeds every utility-derived statistic below.
  const std::vector<double> utilities = model.utilities(result.final_state);
  record.welfare = model.welfare(result.final_state, utilities);
  const double optimal = model.optimal_welfare();
  // An unknown optimum leaves efficiency and the anarchy ratio undefined
  // (NaN), and zero welfare leaves the ratio undefined even when the
  // optimum is known.
  record.efficiency = optimal > 0.0 ? record.welfare / optimal
                                    : (std::isnan(optimal) ? kNaN : 0.0);
  record.anarchy_ratio =
      record.welfare > 0.0 ? optimal / record.welfare : kNaN;
  record.fairness = jain_fairness(utilities);
  record.load_imbalance =
      static_cast<double>(load_imbalance(result.final_state));
  record.deployed =
      static_cast<double>(result.final_state.total_deployed());
  record.per_radio_spread = model.per_radio_spread(result.final_state);
  record.budget_fairness = model.budget_fairness(utilities);
  // Topology columns: coloring_bound() is NaN for global-load models, so
  // every column below is an honest "undefined" outside topology cells.
  const double coloring = model.coloring_bound();
  record.coloring_bound = coloring;
  record.max_degree =
      model.topology()
          ? static_cast<double>(model.topology()->max_degree())
          : kNaN;
  record.graph_efficiency =
      coloring > 0.0 ? record.welfare / coloring : kNaN;

  // Analysis metrics: evaluated inside this task against the cell's shared
  // read-only model. Stochastic metrics get their own decorrelated pure
  // seed, and model-only values go through the cell-scoped memo — so the
  // values, like everything else in the record, are a pure function of the
  // task coordinates.
  if (!spec.metrics.empty()) {
    MetricContext context{
        model, start, result,
        derive_metric_seed(spec.base_seed, cell.index, replicate)};
    context.cell_cache = metric_cache;
    record.metric_values = spec.metrics.compute(context);
  }

  // Packet-level tier: replay the final allocation through the DES. Runs
  // inside this task, so the replays ride the same worker pool and the
  // record stays a pure function of the task coordinates.
  if (spec.sim_tier) {
    // The analytic prediction depends only on (final_state, tier); compute
    // it once and reuse it across the DES replays.
    const std::vector<double> analytic =
        analytic_per_user_bps(result.final_state, *spec.sim_tier);
    record.sim.reserve(spec.sim_tier->replicates);
    for (std::size_t s = 0; s < spec.sim_tier->replicates; ++s) {
      record.sim.push_back(replay_strategy(
          result.final_state, *spec.sim_tier,
          derive_sim_seed(spec.base_seed, cell.index, replicate, s),
          analytic));
    }
  }
  return record;
}

/// In-order delivery with backpressure: workers retire tasks in whatever
/// order the pool schedules them; records park in `pending` until every
/// earlier task has been delivered, then drain contiguously — sinks
/// observe ONE deterministic stream. await_turn() keeps any worker from
/// starting a task more than `window` ahead of the delivery frontier, so
/// the buffer is HARD-bounded by window + workers even under pathological
/// scheduling (an oversubscribed pool preempting the head task's worker),
/// never by the sweep's size. Deadlock-free: the worker holding the
/// frontier task always satisfies its own wait condition, so it is
/// executing, and its delivery advances the frontier.
class InOrderDelivery {
 public:
  InOrderDelivery(const std::vector<RunSink*>& sinks, std::size_t window)
      : sinks_(sinks), window_(window) {}

  /// Blocks until `task` is within the window of the delivery frontier
  /// (returns immediately after abort() so failed sessions drain).
  void await_turn(std::size_t task) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock,
                [&] { return aborted_ || task < next_ + window_; });
  }

  void deliver(std::size_t task, RunRecord record) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) return;  // a sink already threw: stop feeding sinks
    if (task != next_ || draining_) {
      // Not the frontier — or another worker is mid-emit and will pick
      // this record up on its next drain pass.
      pending_.emplace(task, std::move(record));
      max_buffered_ = std::max(max_buffered_, pending_.size());
      return;
    }
    // Frontier: drain contiguous records, but run the sinks OUTSIDE the
    // lock — a slow sink write (JSONL to disk) must stall the stream, not
    // every worker trying to park a record or leave await_turn. The
    // draining_ flag keeps emission single-threaded and in order.
    draining_ = true;
    std::vector<RunRecord> batch;
    batch.push_back(std::move(record));
    ++next_;
    for (;;) {
      for (auto it = pending_.begin();
           it != pending_.end() && it->first == next_;
           it = pending_.erase(it), ++next_) {
        batch.push_back(std::move(it->second));
      }
      ready_.notify_all();
      lock.unlock();
      for (const RunRecord& ready : batch) emit(ready);
      batch.clear();
      lock.lock();
      // Records that became the frontier while we were emitting parked in
      // pending_ (draining_ was set): keep draining until none are ready.
      if (aborted_ || pending_.empty() ||
          pending_.begin()->first != next_) {
        break;
      }
    }
    draining_ = false;
  }

  /// Called when a task or sink throws: wakes every waiting worker so the
  /// pool can drain and rethrow instead of deadlocking on a frontier that
  /// will never advance.
  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    ready_.notify_all();
  }

  std::size_t max_buffered() const noexcept { return max_buffered_; }

 private:
  void emit(const RunRecord& record) {
    for (RunSink* sink : sinks_) sink->consume(record);
  }

  const std::vector<RunSink*>& sinks_;
  const std::size_t window_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::size_t, RunRecord> pending_;
  std::size_t next_ = 0;
  bool aborted_ = false;
  bool draining_ = false;
  std::size_t max_buffered_ = 0;
};

}  // namespace

SweepPlan::SweepPlan(std::shared_ptr<const SweepSpec> spec,
                     std::shared_ptr<const std::vector<SweepSpec::Cell>> cells,
                     std::size_t begin, std::size_t end)
    : spec_(std::move(spec)), cells_(std::move(cells)),
      begin_(begin), end_(end) {}

SweepPlan SweepPlan::build(const SweepSpec& spec) {
  if (spec.replicates == 0) {
    throw std::invalid_argument("SweepPlan: replicates must be >= 1");
  }
  if (spec.sim_tier) {
    if (spec.sim_tier->replicates == 0) {
      throw std::invalid_argument("SweepPlan: sim replicates must be >= 1");
    }
    if (spec.sim_tier->duration_s <= 0.0 ||
        !std::isfinite(spec.sim_tier->duration_s)) {
      throw std::invalid_argument(
          "SweepPlan: sim duration must be finite and > 0");
    }
  }
  auto owned_spec = std::make_shared<const SweepSpec>(spec);
  auto cells = std::make_shared<const std::vector<SweepSpec::Cell>>(
      owned_spec->expand());
  const std::size_t total = cells->size();
  return SweepPlan(std::move(owned_spec), std::move(cells), 0, total);
}

SweepPlan SweepPlan::shard(std::size_t index, std::size_t count) const {
  if (count == 0) {
    throw std::invalid_argument("SweepPlan::shard: count must be >= 1");
  }
  if (index >= count) {
    throw std::invalid_argument(
        "SweepPlan::shard: index " + std::to_string(index) +
        " out of range for " + std::to_string(count) + " shard(s)");
  }
  const std::size_t length = num_cells();
  SweepPlan result(spec_, cells_, begin_ + length * index / count,
                   begin_ + length * (index + 1) / count);
  result.shard_index_ = index;
  result.shard_count_ = count;
  return result;
}

SweepPlan SweepPlan::slice(std::size_t begin, std::size_t end) const {
  if (begin > end || begin < begin_ || end > end_) {
    throw std::invalid_argument(
        "SweepPlan::slice: range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") not contained in [" +
        std::to_string(begin_) + ", " + std::to_string(end_) + ")");
  }
  return SweepPlan(spec_, cells_, begin, end);
}

SessionStats run_session(const SweepPlan& plan,
                         const std::vector<RunSink*>& sinks,
                         const SessionOptions& options) {
  for (RunSink* sink : sinks) {
    if (sink == nullptr) {
      throw std::invalid_argument("run_session: null sink");
    }
  }
  const SweepSpec& spec = plan.spec();
  const std::vector<SweepSpec::Cell>& all_cells = plan.cells();
  const std::size_t begin = plan.cell_begin();
  const std::size_t num_cells = plan.num_cells();
  const std::size_t replicates = spec.replicates;

  // Rate functions are immutable, so build each distinct (spec, table size)
  // once up front and share it across every cell and replicate that needs
  // it — for the DCF kinds this collapses thousands of Bianchi fixed-point
  // table builds into one per distinct N*k. The per-cell GameModel (the
  // scenario picks the game: base, energy-priced, heterogeneous band,
  // mixed radio budgets or priority weights) is likewise immutable and
  // shared across the cell's replicates, so its rate tabulation runs once,
  // not per task. Only THIS shard's models are built.
  std::map<std::pair<std::string, int>, std::shared_ptr<const RateFunction>>
      rate_cache;
  std::vector<GameModel> models;
  models.reserve(num_cells);
  for (std::size_t i = 0; i < num_cells; ++i) {
    const SweepSpec::Cell& cell = all_cells[begin + i];
    // The scenario knows the cell's true maximum load (budget scenarios
    // replace N*k with their budget sum).
    const int max_load =
        cell.scenario.total_radios(cell.users, cell.channels, cell.radios);
    auto& cached = rate_cache[{cell.rate.name(), max_load}];
    if (!cached) cached = cell.rate.make(max_load);
    models.push_back(cell.scenario.make_model(cell.users, cell.channels,
                                              cell.radios, cached));
  }
  // One memo per cell: model-only metric values (poa's exact-fallback
  // equilibrium) are computed once per cell instead of once per replicate.
  std::vector<CellMetricCache> metric_caches(
      spec.metrics.empty() ? 0 : num_cells);

  for (RunSink* sink : sinks) sink->begin(plan);

  // The reorder window caps finished-but-undelivered records (plus one
  // in-flight record per worker) — small enough to keep streamed sweeps'
  // memory flat, large enough that ordinary skew never stalls a worker.
  const std::size_t window =
      std::max<std::size_t>(32, 4 * resolve_thread_count(options.threads));
  InOrderDelivery delivery(sinks, window);
  const std::size_t total_tasks = plan.num_runs();
  const std::size_t workers =
      parallel_for(total_tasks, options.threads, [&](std::size_t task) {
        try {
          delivery.await_turn(task);
          const std::size_t local_cell = task / replicates;
          const std::size_t replicate = task % replicates;
          delivery.deliver(
              task,
              run_one(spec, all_cells[begin + local_cell],
                      models[local_cell], replicate,
                      metric_caches.empty() ? nullptr
                                            : &metric_caches[local_cell]));
        } catch (...) {
          // Wake blocked workers before the pool unwinds, or the join
          // would deadlock on a frontier that can no longer advance.
          delivery.abort();
          throw;
        }
      });

  for (RunSink* sink : sinks) sink->finish();

  SessionStats stats;
  stats.runs = total_tasks;
  stats.threads_used = workers;
  stats.max_buffered = delivery.max_buffered();
  return stats;
}

SessionStats run_session(const SweepPlan& plan, RunSink& sink,
                         const SessionOptions& options) {
  return run_session(plan, std::vector<RunSink*>{&sink}, options);
}

SweepResult merge_sweep_results(const std::vector<SweepResult>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_sweep_results: no shards");
  }
  const SweepResult& first = shards.front();
  for (const SweepResult& shard : shards) {
    if (shard.spec_fingerprint != first.spec_fingerprint) {
      throw std::invalid_argument(
          "merge_sweep_results: spec fingerprints differ ('" +
          shard.spec_fingerprint + "' vs '" + first.spec_fingerprint + "')");
    }
    if (shard.metric_columns != first.metric_columns) {
      throw std::invalid_argument(
          "merge_sweep_results: metric columns differ");
    }
    if (shard.cells_total != first.cells_total) {
      throw std::invalid_argument(
          "merge_sweep_results: plan sizes differ (" +
          std::to_string(shard.cells_total) + " vs " +
          std::to_string(first.cells_total) + " cells)");
    }
    if (shard.cell_begin > shard.cell_end ||
        shard.cell_end > shard.cells_total ||
        shard.cells.size() != shard.cell_end - shard.cell_begin) {
      throw std::invalid_argument(
          "merge_sweep_results: shard range is inconsistent with its cells");
    }
    for (std::size_t i = 0; i < shard.cells.size(); ++i) {
      if (shard.cells[i].cell.index != shard.cell_begin + i) {
        throw std::invalid_argument(
            "merge_sweep_results: shard cells are not the contiguous range "
            "[" + std::to_string(shard.cell_begin) + ", " +
            std::to_string(shard.cell_end) + ")");
      }
    }
  }

  // Sort by range and require an exact partition of [0, cells_total):
  // disjoint contiguous shards never split a cell, so the merge is pure
  // concatenation — which is what makes it byte-identical to the full run.
  std::vector<const SweepResult*> ordered;
  ordered.reserve(shards.size());
  for (const SweepResult& shard : shards) {
    // Empty shards (shard counts beyond the cell count produce them, and
    // they are documented-legal) carry no cells and constrain nothing:
    // they must not make the partition check order-sensitive.
    if (shard.cell_begin != shard.cell_end) ordered.push_back(&shard);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const SweepResult* a, const SweepResult* b) {
              return a->cell_begin < b->cell_begin;
            });
  std::size_t expected = 0;
  for (const SweepResult* shard : ordered) {
    if (shard->cell_begin != expected) {
      throw std::invalid_argument(
          "merge_sweep_results: shard ranges " +
          std::string(shard->cell_begin < expected ? "overlap" : "leave a gap")
          + " at cell " + std::to_string(std::min(expected,
                                                  shard->cell_begin)));
    }
    expected = shard->cell_end;
  }
  if (expected != first.cells_total) {
    throw std::invalid_argument(
        "merge_sweep_results: shards cover only [0, " +
        std::to_string(expected) + ") of " +
        std::to_string(first.cells_total) + " cells");
  }

  SweepResult merged;
  merged.spec_fingerprint = first.spec_fingerprint;
  merged.metric_columns = first.metric_columns;
  merged.cells_total = first.cells_total;
  merged.cell_begin = 0;
  merged.cell_end = first.cells_total;
  merged.cells.reserve(first.cells_total);
  for (const SweepResult* shard : ordered) {
    merged.total_runs += shard->total_runs;
    merged.cells.insert(merged.cells.end(), shard->cells.begin(),
                        shard->cells.end());
  }
  return merged;
}

}  // namespace mrca::engine
