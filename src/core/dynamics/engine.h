// Pluggable dynamics engines: WHICH adjustment process plays the game is a
// first-class, sweepable axis — not a hardwired call to the best-response
// driver.
//
// The paper reaches its equilibria through best-response play; the open
// question (ROADMAP "Dynamics portfolio") is which dynamics reach which
// equilibria, how fast, and at what welfare. This subsystem answers it the
// same way scenarios and metrics became comparable: a DynamicsSpec is a
// parsed value ("log_linear:0.5:0.01"), and run_dynamics() switches on its
// kind to hand a (model, start, options, rng) run to that engine. Every
// engine keeps its books in one RunLedger (run_ledger.h: result, cache,
// welfare trace, budget, `converged`, proof, counters), so all four report
// the one DynamicsResult contract the same way. Four engines ship:
//
//   best_response  run_response_dynamics (core/alloc/best_response.h),
//                  called directly — cache, dirty-channel pruning and Rng
//                  stream untouched, so trajectories are bit-identical to
//                  calling it outside the portfolio.
//   log_linear     Glauber / simulated-annealing play over the exact
//                  potential: one uniformly random user per step samples
//                  among {stay} ∪ {single-radio changes} with Gibbs weights
//                  exp(benefit / T). Because utility difference equals
//                  potential difference for single-radio changes, each step
//                  costs one shared-kernel scan (deviation_detail.h). The
//                  temperature anneals geometrically T0 -> Tend.
//   trial_error    payoff-based trial-and-error learning in the Bistritz-
//                  Leshem style: no deviation oracle at all. An activated
//                  user occasionally (exploration probability) tries one
//                  uniformly random feasible change, observes only its OWN
//                  realized utility, keeps the change if it improved and
//                  reverts otherwise.
//   distributed    the paper's §3 synchronous no-coordinator protocol
//                  (distributed.cpp); one protocol round is one activation
//                  and one applied change is one improving step and one
//                  welfare-trace point. It keeps no cache.
//
// Adding an engine is a DynamicsSpec::Kind arm (name/parse/validate), a row
// in dynamics_engines(), a run_dynamics switch arm, and a step rule that
// builds one RunLedger and leaves it the bookkeeping (its declaration goes
// in run_ledger.h, beside the other engines').
//
// Determinism contract: every engine draws ONLY from the Rng it is handed.
// The sweep session seeds that Rng with derive_dynamics_seed(base_seed,
// absolute cell, replicate) — a pure function of the task coordinates — so
// dynamics cells stay bit-identical at any thread count, like every other
// axis.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// Value-type description of one dynamics engine configuration, so a sweep
/// axis over dynamics is copyable, comparable and printable — the same
/// shape RateSpec and ScenarioSpec give their axes.
struct DynamicsSpec {
  enum class Kind {
    kBestResponse,
    kLogLinear,
    kTrialError,
    kDistributed,
  };

  Kind kind = Kind::kBestResponse;

  /// Log-linear temperature schedule: anneals geometrically from
  /// temp_start to temp_end over the activation budget (equal values mean
  /// a fixed temperature). Both must be finite and > 0.
  double temp_start = 0.5;
  double temp_end = 0.01;
  /// Trial-and-error: probability an activated user experiments at all
  /// (otherwise it is content and keeps its allocation). In (0, 1].
  double exploration = 0.1;
  /// Distributed protocol: per-round activation probability, in (0, 1].
  double activation_probability = 0.3;

  /// Canonical spec string: "best_response", "log_linear:<T0>:<Tend>",
  /// "trial_error:<eps>", "distributed:<p>". parse(name()) round-trips.
  std::string name() const;

  /// Parses the name() format. Bare engine names take the defaults above;
  /// "log_linear:<T>" pins a fixed temperature (T0 = Tend = T). Throws
  /// std::invalid_argument on unknown engines or out-of-range options.
  static DynamicsSpec parse(const std::string& text);

  /// Throws std::invalid_argument when the kind's options are out of the
  /// ranges above. parse and run_dynamics both call it, so a spec built in
  /// code is held to the parser's ranges.
  void validate() const;

  /// Parses a comma list of specs, e.g. "best_response,log_linear:0.1".
  /// (Colons are intra-spec separators, commas separate axis values.)
  static std::vector<DynamicsSpec> parse_list(const std::string& text);

  /// True when the engine honors the response granularity / activation
  /// order axes (only best_response does — the learners define their own
  /// activation and selection rules, so the sweep collapses those axes to
  /// their first values for every other engine).
  bool uses_response_axes() const noexcept {
    return kind == Kind::kBestResponse;
  }

  friend bool operator==(const DynamicsSpec&, const DynamicsSpec&) = default;
};

/// One engine's kind and its CLI name, e.g. "log_linear" (the spec's
/// options ride in the DynamicsSpec, not the name).
struct DynamicsEngine {
  DynamicsSpec::Kind kind = DynamicsSpec::Kind::kBestResponse;
  std::string name;
};

/// Every engine, in Kind order.
const std::vector<DynamicsEngine>& dynamics_engines();

/// Engine lookups. The string overload throws std::invalid_argument
/// listing the known engines on a miss (the CLI surfaces this verbatim).
const DynamicsEngine& dynamics_engine(DynamicsSpec::Kind kind);
const DynamicsEngine& dynamics_engine(const std::string& name);

/// Runs the spec's engine after checking its ranges (validate()). This is
/// the one entry point into the portfolio. `rng` may be null only for
/// configurations that draw no randomness (round-robin best_response);
/// every other engine throws std::invalid_argument on a null Rng.
DynamicsResult run_dynamics(const DynamicsSpec& spec, const GameModel& model,
                            const StrategyMatrix& start,
                            const DynamicsOptions& options, Rng* rng);

}  // namespace mrca
