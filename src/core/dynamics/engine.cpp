#include "core/dynamics/engine.h"

#include <optional>
#include <stdexcept>

#include "common/format.h"

namespace mrca {
namespace {

double parse_option(const std::string& token, const std::string& spec) {
  const std::optional<double> value = parse_finite(token);
  if (!value) {
    throw std::invalid_argument("DynamicsSpec: bad option '" + token +
                                "' in '" + spec + "'");
  }
  return *value;
}

void require_probability(double value, const char* what,
                         const std::string& spec) {
  if (!(value > 0.0) || value > 1.0) {
    throw std::invalid_argument("DynamicsSpec: " + std::string(what) +
                                " must be in (0, 1] in '" + spec + "'");
  }
}

Rng& require_rng(Rng* rng, DynamicsSpec::Kind kind) {
  if (rng == nullptr) {
    throw std::invalid_argument("run_dynamics: engine '" +
                                dynamics_engine(kind).name +
                                "' requires an Rng");
  }
  return *rng;
}

std::string known_engines() {
  std::string names;
  for (const DynamicsEngine& engine : dynamics_engines()) {
    if (!names.empty()) names += ", ";
    names += engine.name;
  }
  return names;
}

}  // namespace

std::string DynamicsSpec::name() const {
  switch (kind) {
    case Kind::kBestResponse:
      return "best_response";
    case Kind::kLogLinear:
      return "log_linear:" + round_trip_double(temp_start) + ':' +
             round_trip_double(temp_end);
    case Kind::kTrialError:
      return "trial_error:" + round_trip_double(exploration);
    case Kind::kDistributed:
      return "distributed:" + round_trip_double(activation_probability);
  }
  throw std::logic_error("DynamicsSpec: unknown kind");
}

DynamicsSpec DynamicsSpec::parse(const std::string& text) {
  const std::vector<std::string> parts = split_fields(text, ':');
  const std::string& head = parts.front();
  const std::size_t options = parts.size() - 1;
  DynamicsSpec spec;
  if (head == "best_response") {
    if (options != 0) {
      throw std::invalid_argument(
          "DynamicsSpec: best_response takes no options ('" + text + "')");
    }
    return spec;
  }
  if (head == "log_linear") {
    spec.kind = Kind::kLogLinear;
    if (options > 2) {
      throw std::invalid_argument(
          "DynamicsSpec: log_linear takes at most two options "
          "(T0[:Tend]) in '" + text + "'");
    }
    if (options >= 1) {
      spec.temp_start = parse_option(parts[1], text);
      // A single temperature means "play at fixed T" — no annealing.
      spec.temp_end = options == 2 ? parse_option(parts[2], text)
                                   : spec.temp_start;
    }
    if (!(spec.temp_start > 0.0) || !(spec.temp_end > 0.0)) {
      throw std::invalid_argument(
          "DynamicsSpec: log_linear temperatures must be > 0 in '" + text +
          "'");
    }
    return spec;
  }
  if (head == "trial_error") {
    spec.kind = Kind::kTrialError;
    if (options > 1) {
      throw std::invalid_argument(
          "DynamicsSpec: trial_error takes at most one option (eps) in '" +
          text + "'");
    }
    if (options == 1) spec.exploration = parse_option(parts[1], text);
    require_probability(spec.exploration, "exploration", text);
    return spec;
  }
  if (head == "distributed") {
    spec.kind = Kind::kDistributed;
    if (options > 1) {
      throw std::invalid_argument(
          "DynamicsSpec: distributed takes at most one option (p) in '" +
          text + "'");
    }
    if (options == 1) {
      spec.activation_probability = parse_option(parts[1], text);
    }
    require_probability(spec.activation_probability,
                        "activation probability", text);
    return spec;
  }
  throw std::invalid_argument("DynamicsSpec: unknown engine '" + head +
                              "' (available: " + known_engines() + ")");
}

std::vector<DynamicsSpec> DynamicsSpec::parse_list(const std::string& text) {
  std::vector<DynamicsSpec> specs;
  for (const std::string& item : split_fields(text, ',')) {
    if (item.empty()) {
      throw std::invalid_argument("DynamicsSpec: empty engine name in '" +
                                  text + "'");
    }
    specs.push_back(parse(item));
  }
  return specs;
}

const std::vector<DynamicsEngine>& dynamics_engines() {
  static const std::vector<DynamicsEngine> engines = {
      {DynamicsSpec::Kind::kBestResponse, "best_response"},
      {DynamicsSpec::Kind::kLogLinear, "log_linear"},
      {DynamicsSpec::Kind::kTrialError, "trial_error"},
      {DynamicsSpec::Kind::kDistributed, "distributed"},
  };
  return engines;
}

const DynamicsEngine& dynamics_engine(DynamicsSpec::Kind kind) {
  for (const DynamicsEngine& engine : dynamics_engines()) {
    if (engine.kind == kind) return engine;
  }
  throw std::logic_error("dynamics_engine: unregistered kind");
}

const DynamicsEngine& dynamics_engine(const std::string& name) {
  for (const DynamicsEngine& engine : dynamics_engines()) {
    if (engine.name == name) return engine;
  }
  throw std::invalid_argument("unknown dynamics engine '" + name +
                              "' (available: " + known_engines() + ")");
}

DynamicsResult run_dynamics(const DynamicsSpec& spec, const GameModel& model,
                            const StrategyMatrix& start,
                            const DynamicsOptions& options, Rng* rng) {
  switch (spec.kind) {
    case DynamicsSpec::Kind::kBestResponse:
      return run_response_dynamics(model, start, options, rng);
    case DynamicsSpec::Kind::kLogLinear:
      return run_log_linear_dynamics(spec, model, start, options,
                                     require_rng(rng, spec.kind));
    case DynamicsSpec::Kind::kTrialError:
      return run_trial_error_dynamics(spec, model, start, options,
                                      require_rng(rng, spec.kind));
    case DynamicsSpec::Kind::kDistributed:
      return run_distributed_dynamics(spec, model, start, options,
                                      require_rng(rng, spec.kind));
  }
  throw std::logic_error("run_dynamics: unknown kind");
}

}  // namespace mrca
