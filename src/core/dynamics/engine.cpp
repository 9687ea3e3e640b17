#include "core/dynamics/engine.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/format.h"
#include "core/dynamics/run_ledger.h"

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
  DynamicsSpec spec;
  // The engine's options in spec order, and how the usage names them.
  std::vector<double*> slots;
  const char* usage = "no options";
  if (head == "log_linear") {
    spec.kind = Kind::kLogLinear;
    slots = {&spec.temp_start, &spec.temp_end};
    usage = "at most two options (T0[:Tend])";
  } else if (head == "trial_error") {
    spec.kind = Kind::kTrialError;
    slots = {&spec.exploration};
    usage = "at most one option (eps)";
  } else if (head == "distributed") {
    spec.kind = Kind::kDistributed;
    slots = {&spec.activation_probability};
    usage = "at most one option (p)";
  } else if (head != "best_response") {
    throw std::invalid_argument("DynamicsSpec: unknown engine '" + head +
                                "' (available: " + known_engines() + ")");
  }
  const std::size_t options = parts.size() - 1;
  if (options > slots.size()) {
    throw std::invalid_argument("DynamicsSpec: " + head + " takes " + usage +
                                " in '" + text + "'");
  }
  for (std::size_t i = 0; i < options; ++i) {
    *slots[i] = parse_option(parts[i + 1], text);
  }
  // A single temperature means "play at fixed T" — no annealing.
  if (spec.kind == Kind::kLogLinear && options == 1) {
    spec.temp_end = spec.temp_start;
  }
  spec.validate();
  return spec;
}

void DynamicsSpec::validate() const {
  const auto positive = [](double t) { return std::isfinite(t) && t > 0.0; };
  const auto probability = [](double p) { return p > 0.0 && p <= 1.0; };
  const char* broken =
      kind == Kind::kLogLinear && !(positive(temp_start) && positive(temp_end))
          ? "log_linear temperatures must be finite and > 0"
      : kind == Kind::kTrialError && !probability(exploration)
          ? "exploration must be in (0, 1]"
      : kind == Kind::kDistributed && !probability(activation_probability)
          ? "activation probability must be in (0, 1]"
          : nullptr;
  if (broken != nullptr) {
    throw std::invalid_argument("DynamicsSpec: " + std::string(broken) +
                                " in '" + name() + "'");
  }
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
  spec.validate();
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
