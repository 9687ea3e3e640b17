// Parallel batch-experiment engine: expand a cartesian parameter grid into
// thousands of independent game runs, execute them across a worker pool, and
// aggregate per-cell statistics.
//
// Determinism contract: every run's RNG seed is a pure function of
// (base_seed, ABSOLUTE cell index, replicate index) and records are
// delivered to sinks in task order (engine/session.h), so the full
// SweepResult — and every serialized byte downstream of it — is
// bit-identical at any thread count and across any shard partition. This
// is the regime of large-scale allocation studies (e.g. Bistritz &
// Leshem's asymptotic analyses) where one parameter point says nothing and
// the (N, C, k, R, dynamics) response surface is the object.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/alloc/best_response.h"
#include "core/analysis/metrics.h"
#include "core/dynamics/engine.h"
#include "core/rate_function.h"
#include "core/types.h"
#include "engine/scenario.h"
#include "engine/sim_tier.h"

namespace mrca::engine {

/// Value-type description of a rate function, so a SweepSpec is copyable,
/// comparable and printable without touching polymorphic objects. The
/// closed-form kinds are normalized to R(1) = 1, so name() describes the
/// whole spec.
struct RateSpec {
  enum class Kind {
    kConstant,
    kPowerLaw,
    kGeometricDecay,
    kLinearDecay,
    kDcf,         // Bianchi practical DCF table (strictly decreasing)
    kDcfOptimal,  // Bianchi optimally-tuned DCF table (near constant)
  };

  Kind kind = Kind::kConstant;
  /// alpha for kPowerLaw, decay for kGeometricDecay, slope for kLinearDecay;
  /// ignored for kConstant and the DCF kinds.
  double param = 0.0;

  /// Short spec string, e.g. "tdma", "powerlaw=1", "geom=0.9", "linear=0.1",
  /// "dcf", "dcf-opt".
  std::string name() const;

  /// Builds the rate function. `max_load` bounds the loads the game can
  /// produce (|N|*k, or the budget sum); the DCF kinds tabulate the Bianchi
  /// model up to it — STRICTLY, so an undersized table throws instead of
  /// silently flattening — and the closed-form kinds ignore it. No default:
  /// every call site knows its game's true maximum load and must say so.
  std::shared_ptr<const RateFunction> make(int max_load) const;

  /// Parses the name() format (also accepts "const" for "tdma").
  /// Throws std::invalid_argument on unknown specs. This is the single
  /// rate-spec language shared by every CLI command and the sweep grid.
  static RateSpec parse(const std::string& text);

  friend bool operator==(const RateSpec&, const RateSpec&) = default;
};

/// How each run's starting allocation is drawn.
enum class SweepStart {
  kEmpty,         // all radios parked (Lemma 1 territory)
  kRandomFull,    // every radio on a uniform channel
  kRandomPartial, // random subset deployed
  kSequentialNe,  // Algorithm 1's NE (dynamics should stay put)
};

const char* to_string(SweepStart start);
const char* to_string(ResponseGranularity granularity);
const char* to_string(ActivationOrder order);

/// Inverses of the to_string spellings above (the single axis-value
/// language shared by the CLI flags and the sweep JSON header). Throw
/// std::invalid_argument on unknown names.
SweepStart parse_sweep_start(const std::string& text);
ResponseGranularity parse_response_granularity(const std::string& text);
ActivationOrder parse_activation_order(const std::string& text);

/// Cartesian grid over game, scenario and dynamics parameters.
/// Combinations violating the model constraint k <= |C| are skipped during
/// expansion, and the k axis collapses to its first valid value for budget
/// scenarios (which pin their own radio counts).
struct SweepSpec {
  std::vector<std::size_t> users{4};
  std::vector<std::size_t> channels{4};
  std::vector<RadioCount> radios{1};
  std::vector<RateSpec> rates{RateSpec{}};
  std::vector<ScenarioSpec> scenarios{ScenarioSpec{}};
  /// Dynamics engines (core/dynamics/engine.h). The default single
  /// best_response entry expands to exactly the pre-axis grid — same cell
  /// indices, same seed streams — so existing sweeps stay byte-identical.
  /// Engines that ignore the response granularity / activation order axes
  /// collapse them to their first values during expansion (the
  /// budget-scenario precedent for the k axis).
  std::vector<DynamicsSpec> dynamics{DynamicsSpec{}};
  std::vector<ResponseGranularity> granularities{
      ResponseGranularity::kBestResponse};
  std::vector<ActivationOrder> orders{ActivationOrder::kRoundRobin};
  std::vector<SweepStart> starts{SweepStart::kRandomFull};
  /// Independent runs per cell (distinct seed streams).
  std::size_t replicates = 1;
  std::uint64_t base_seed = 1;
  std::size_t max_activations = 100000;
  double tolerance = kUtilityTolerance;
  /// Optional packet-level validation tier: when set, every run's final
  /// allocation is replayed through the discrete-event simulator (on the
  /// same worker pool, inside the run's task) and scored against the MAC
  /// model's analytic prediction.
  std::optional<SimTierSpec> sim_tier;
  /// Analysis metrics evaluated per run, inside the pool task, against the
  /// cell's model and the run's converged state (core/analysis/metrics.h).
  /// Empty = no metric columns. Stochastic metrics draw from a pure
  /// per-task seed, so output stays bit-identical at any thread count.
  MetricSet metrics;

  /// One point of the expanded grid.
  struct Cell {
    std::size_t users = 0;
    std::size_t channels = 0;
    RadioCount radios = 0;
    RateSpec rate;
    ScenarioSpec scenario;
    DynamicsSpec dynamics;
    ResponseGranularity granularity = ResponseGranularity::kBestResponse;
    ActivationOrder order = ActivationOrder::kRoundRobin;
    SweepStart start = SweepStart::kRandomFull;
    /// Position in the expanded (valid-only) grid. ABSOLUTE: sharding a
    /// plan never renumbers cells, so seeds stay pure functions of the
    /// cell's place in the full expansion.
    std::size_t index = 0;

    friend bool operator==(const Cell&, const Cell&) = default;
  };

  /// All grid combinations including invalid ones (k > |C|).
  std::size_t grid_size() const noexcept;

  /// The valid cells in a fixed nesting order (users outermost, starts
  /// innermost) — the order is part of the determinism contract.
  std::vector<Cell> expand() const;

  /// Canonical one-line description of every axis, seed and option that
  /// determines the sweep's output. Two specs with equal fingerprints
  /// expand to the same plan and draw the same seed streams, so the
  /// fingerprint is what `mrca merge` compares before combining shard
  /// outputs. (Custom metrics are identified by name.)
  std::string fingerprint() const;
};

/// Per-cell aggregate over the cell's replicates. Each RunningStats holds
/// the defined samples of one RunRecord column (engine/session.h: NaN
/// samples are skipped, so `count()` is that column's coverage), listed in
/// kRecordColumns / kSimColumns there.
struct CellResult {
  SweepSpec::Cell cell;
  std::size_t runs = 0;
  std::size_t converged = 0;
  RunningStats activations;
  RunningStats improving_steps;
  // Dirty-channel pruning witnesses, surfaced per cell so pruning efficacy
  // shows up in sweep and farm output. Always-defined counters: 0 for
  // engines/paths that run no cache.
  /// Activations resolved as proven O(1) no-ops per run.
  RunningStats scan_skips;
  /// Per-user utility updates performed by cache repricing per run.
  RunningStats reprice_touches;
  RunningStats welfare;
  /// welfare / optimal_welfare in [0, 1].
  RunningStats efficiency;
  /// optimal_welfare / welfare (empirical anarchy ratio; the paper's PoA is
  /// this value at a NE).
  RunningStats anarchy_ratio;
  /// Jain fairness over final per-user utilities.
  RunningStats fairness;
  /// max - min channel load of the final allocation.
  RunningStats load_imbalance;

  // Scenario columns (meaningful for every scenario kind; for the base
  // game `deployed` is constant N*k and `per_radio_spread` collapses to
  // the load-balance diagnostic).
  /// Total radios on air at the fixed point (the energy knee's ordinate).
  RunningStats deployed;
  /// (max - min) per-radio rate over occupied channels (water-filling).
  RunningStats per_radio_spread;
  /// Jain fairness over budget-normalized utilities U_i / k_i.
  RunningStats budget_fairness;

  // Topology columns (empty for every non-topology cell).
  /// Spatial-reuse achievable welfare (GameModel::coloring_bound).
  RunningStats coloring_bound;
  /// Interference graph's maximum degree (constant across replicates).
  RunningStats max_degree;
  /// welfare / coloring_bound — the graph-aware efficiency reference
  /// (optimal_welfare, hence `efficiency`, is NaN under a topology).
  RunningStats graph_efficiency;

  // Dynamic metric aggregates, parallel to SweepResult::metric_columns
  // (empty when the spec has no metrics).
  std::vector<RunningStats> metric_stats;

  // Packet-level tier aggregates (one sample per DES replay; all empty when
  // the spec has no sim_tier).
  std::size_t sim_runs = 0;
  /// Measured total payload throughput per replay, bit/s.
  RunningStats sim_total_bps;
  /// Mean relative analytic-vs-measured per-user throughput gap.
  RunningStats sim_gap;
  /// Jain fairness over measured per_user_bps.
  RunningStats sim_fairness;
  /// Relative per-channel measured-throughput spread over occupied channels.
  RunningStats sim_imbalance;
};

struct SweepResult {
  std::vector<CellResult> cells;
  /// Flattened metric column names (spec.metrics.column_names()); every
  /// cell's metric_stats is parallel to this.
  std::vector<std::string> metric_columns;
  std::size_t total_runs = 0;
  std::size_t threads_used = 1;

  // Provenance, serialized in the JSON header so shard outputs are
  // self-describing and `merge_sweep_results` can refuse apples-to-oranges
  // merges. `cells` covers the absolute cell range [cell_begin, cell_end)
  // of a plan whose full expansion has cells_total cells; a non-sharded
  // result has cell_begin == 0 and cell_end == cells_total.
  std::string spec_fingerprint;
  std::size_t cells_total = 0;
  std::size_t cell_begin = 0;
  std::size_t cell_end = 0;
};

struct SweepOptions {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t threads = 1;
};

/// Deterministic per-run seed: a pure function of the sweep seed and the
/// task coordinates, independent of scheduling.
std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t cell_index,
                              std::size_t replicate);

/// Deterministic seed for one DES replay of one run: a pure function of
/// (base_seed, cell, replicate, sim_replicate), decorrelated from the run's
/// own RNG stream.
std::uint64_t derive_sim_seed(std::uint64_t base_seed, std::size_t cell_index,
                              std::size_t replicate,
                              std::size_t sim_replicate);

/// Deterministic seed for a run's metric evaluations: a pure function of
/// (base_seed, cell, replicate), decorrelated from both the run's RNG and
/// the DES streams.
std::uint64_t derive_metric_seed(std::uint64_t base_seed,
                                 std::size_t cell_index,
                                 std::size_t replicate);

/// Deterministic seed for a run's dynamics engine: a pure function of
/// (base_seed, cell, replicate), decorrelated from the run, DES and metric
/// streams. best_response cells keep drawing from the run's own Rng (the
/// pre-axis stream, bit-identical); every other engine draws from an Rng
/// seeded with this value.
std::uint64_t derive_dynamics_seed(std::uint64_t base_seed,
                                   std::size_t cell_index,
                                   std::size_t replicate);

/// Expands the spec and runs every (cell, replicate) task across the pool.
/// A thin wrapper over the streaming session API (engine/session.h): build
/// a SweepPlan, execute it into an AggregatingSink, return the aggregate —
/// kept because "run the whole grid, give me everything" is still the right
/// call shape for small sweeps and tests. Bit-identical to the pre-session
/// engine at every thread count.
SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

}  // namespace mrca::engine
