// ScenarioSpec: a copyable value-type description of WHICH game the sweep
// engine plays at a grid point — the paper's base game or one of its §2
// relaxations — so scenarios become a first-class sweep axis next to
// (N, C, k, rate, dynamics).
//
//   base            the paper's homogeneous game
//   energy=<c>      energy-priced utilities, cost c per deployed radio
//   het=<s1:s2:..>  heterogeneous band: channel c's rate is the base rate
//                   scaled by s_{c mod m} (profiles cycle over channels)
//   budgets=<b1:..> per-user radio budgets b_{i mod m}, each clamped to |C|
//                   (the grid's k axis is ignored for budget scenarios)
//   weights=<w1:..> per-user utility weights w_{i mod m} (priority
//                   classes): dynamics and equilibria match the base game,
//                   but utilities, welfare, efficiency and fairness are
//                   reported in operator-weighted units
//   topology=<t>    interference graph replacing the single collision
//                   domain: loads become closed-neighborhood perceived
//                   loads (core/topology.h documents the grammar —
//                   complete | ring:<d> | grid:<W>x<H>:<d> |
//                   edges:<a>-<b>:..). "topology=complete" normalizes to
//                   base, so complete cells are bit-identical to base ones.
//
// A spec expands into a GameModel per cell; every future scenario is a new
// Kind plus ~100 lines here, not a fourth game class and a fourth driver.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/game_model.h"
#include "core/rate_function.h"
#include "core/topology.h"
#include "core/types.h"

namespace mrca::engine {

struct ScenarioSpec {
  enum class Kind {
    kBase,
    kEnergy,
    kHeterogeneous,
    kBudgets,
    kWeights,
    kTopology,
  };

  Kind kind = Kind::kBase;
  /// Energy price per deployed radio (kEnergy; >= 0).
  double energy_cost = 0.0;
  /// Per-channel scale factors applied cyclically to the base rate
  /// (kHeterogeneous; each finite and > 0).
  std::vector<double> rate_scales;
  /// Per-user radio budgets applied cyclically (kBudgets; each >= 0, at
  /// least one positive; clamped to |C| at model-build time).
  std::vector<RadioCount> budget_mix;
  /// Per-user utility weights applied cyclically (kWeights; each finite
  /// and in [1e-4, 1e4] — bounded so weighted benefit comparisons keep
  /// noise headroom against the dynamics tolerance).
  std::vector<double> weight_mix;
  /// Interference graph (kTopology). Grids and edge lists pin or bound
  /// their own user count; incompatible cells are skipped at expansion
  /// (TopologySpec::compatible).
  TopologySpec topology;

  /// Canonical spec string: "base", "energy=0.2", "het=2:1", "budgets=1:4",
  /// "weights=2:1", "topology=ring:2". parse(name()) is the identity, so
  /// distinct scenarios never collide in CSV/JSON output.
  std::string name() const;

  /// Parses one canonical spec string; throws std::invalid_argument on
  /// malformed input.
  static ScenarioSpec parse(const std::string& text);

  /// Parses a CLI scenario list. ';' separates groups; within a group a
  /// comma list expands one scenario per element:
  ///   "energy=0.1,0.3"          -> energy=0.1, energy=0.3
  ///   "het=2:1,4:1:1"           -> het=2:1, het=4:1:1
  ///   "base;energy=0.5"         -> base, energy=0.5
  ///   "weights=2:1,4:1"         -> weights=2:1, weights=4:1
  static std::vector<ScenarioSpec> parse_list(const std::string& text);

  /// Budget scenarios pin their own radio counts, so the grid's k axis is
  /// collapsed for them during expansion.
  bool uses_radios_axis() const noexcept { return kind != Kind::kBudgets; }

  /// The per-user budgets of a (users, channels, radios) cell.
  std::vector<RadioCount> budgets(std::size_t users, std::size_t channels,
                                  RadioCount radios) const;

  /// Total radios of the cell (the rate-table sizing bound); throws
  /// std::invalid_argument when it exceeds RadioCount's range.
  RadioCount total_radios(std::size_t users, std::size_t channels,
                          RadioCount radios) const;

  /// Builds the cell's GameModel around the already-constructed base rate
  /// function (shared across replicates by the sweep's rate cache).
  GameModel make_model(std::size_t users, std::size_t channels,
                       RadioCount radios,
                       std::shared_ptr<const RateFunction> base_rate) const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

}  // namespace mrca::engine
