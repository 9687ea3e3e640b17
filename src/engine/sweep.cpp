#include "engine/sweep.h"

#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/format.h"
#include "common/rng.h"
#include "mac/bianchi.h"
#include "engine/session.h"
#include "engine/sinks.h"

namespace mrca::engine {
namespace {

/// R(1) of every closed-form rate kind.
constexpr double kNominalRate = 1.0;

}  // namespace

std::string RateSpec::name() const {
  switch (kind) {
    case Kind::kConstant:
      return "tdma";
    case Kind::kPowerLaw:
      return "powerlaw=" + round_trip_double(param);
    case Kind::kGeometricDecay:
      return "geom=" + round_trip_double(param);
    case Kind::kLinearDecay:
      return "linear=" + round_trip_double(param);
    case Kind::kDcf:
      return "dcf";
    case Kind::kDcfOptimal:
      return "dcf-opt";
  }
  throw std::logic_error("RateSpec: unknown kind");
}

std::shared_ptr<const RateFunction> RateSpec::make(int max_load) const {
  // The Bianchi tables need at least two entries so the conflict regime is
  // represented even for degenerate configurations.
  const int table = std::max(max_load, 2);
  switch (kind) {
    case Kind::kConstant:
      return std::make_shared<ConstantRate>(kNominalRate);
    case Kind::kPowerLaw:
      return std::make_shared<PowerLawRate>(kNominalRate, param);
    case Kind::kGeometricDecay:
      return std::make_shared<GeometricDecayRate>(kNominalRate, param);
    case Kind::kLinearDecay:
      return std::make_shared<LinearDecayRate>(kNominalRate, param);
    case Kind::kDcf:
      // Strict: a load beyond the table is a sizing bug at the call site,
      // not a rate of values_.back() — fail loudly instead of flattening.
      return BianchiDcfModel(DcfParameters::bianchi_fhss())
          .make_practical_rate(table, /*strict=*/true);
    case Kind::kDcfOptimal:
      return BianchiDcfModel(DcfParameters::bianchi_fhss())
          .make_optimal_rate(table, /*strict=*/true);
  }
  throw std::logic_error("RateSpec: unknown kind");
}

RateSpec RateSpec::parse(const std::string& text) {
  // Strict: the parameter must be a finite double with no trailing junk,
  // so "powerlaw=1x" or "geom=nan" are rejected rather than truncated.
  auto value_after = [&](std::size_t prefix_length) {
    const std::optional<double> value =
        parse_finite(std::string_view(text).substr(prefix_length));
    if (!value) {
      throw std::invalid_argument("RateSpec: bad parameter in '" + text +
                                  "'");
    }
    return *value;
  };
  if (text == "tdma" || text == "const") return RateSpec{};
  if (text == "dcf") return RateSpec{Kind::kDcf};
  if (text == "dcf-opt") return RateSpec{Kind::kDcfOptimal};
  if (text.rfind("powerlaw=", 0) == 0) {
    return RateSpec{Kind::kPowerLaw, value_after(9)};
  }
  if (text.rfind("geom=", 0) == 0) {
    return RateSpec{Kind::kGeometricDecay, value_after(5)};
  }
  if (text.rfind("linear=", 0) == 0) {
    return RateSpec{Kind::kLinearDecay, value_after(7)};
  }
  throw std::invalid_argument("RateSpec: unknown rate spec '" + text + "'");
}

const char* to_string(SweepStart start) {
  switch (start) {
    case SweepStart::kEmpty: return "empty";
    case SweepStart::kRandomFull: return "random";
    case SweepStart::kRandomPartial: return "partial";
    case SweepStart::kSequentialNe: return "ne";
  }
  return "?";
}

const char* to_string(ResponseGranularity granularity) {
  switch (granularity) {
    case ResponseGranularity::kBestResponse: return "best";
    case ResponseGranularity::kBestSingleMove: return "single";
    case ResponseGranularity::kRandomImprovingMove: return "random-move";
  }
  return "?";
}

const char* to_string(ActivationOrder order) {
  switch (order) {
    case ActivationOrder::kRoundRobin: return "rr";
    case ActivationOrder::kUniformRandom: return "random";
  }
  return "?";
}

SweepStart parse_sweep_start(const std::string& text) {
  if (text == "empty") return SweepStart::kEmpty;
  if (text == "random") return SweepStart::kRandomFull;
  if (text == "partial") return SweepStart::kRandomPartial;
  if (text == "ne") return SweepStart::kSequentialNe;
  throw std::invalid_argument("unknown start '" + text + "'");
}

ResponseGranularity parse_response_granularity(const std::string& text) {
  if (text == "best") return ResponseGranularity::kBestResponse;
  if (text == "single") return ResponseGranularity::kBestSingleMove;
  if (text == "random-move") return ResponseGranularity::kRandomImprovingMove;
  throw std::invalid_argument("unknown granularity '" + text + "'");
}

ActivationOrder parse_activation_order(const std::string& text) {
  if (text == "rr") return ActivationOrder::kRoundRobin;
  if (text == "random") return ActivationOrder::kUniformRandom;
  throw std::invalid_argument("unknown activation order '" + text + "'");
}

std::size_t SweepSpec::grid_size() const noexcept {
  return users.size() * channels.size() * radios.size() * rates.size() *
         scenarios.size() * dynamics.size() * granularities.size() *
         orders.size() * starts.size();
}

std::vector<SweepSpec::Cell> SweepSpec::expand() const {
  std::vector<Cell> cells;
  cells.reserve(grid_size());
  for (const std::size_t n : users) {
    for (const std::size_t c : channels) {
      // Budget scenarios pin their own radio counts, so for them the k
      // axis collapses: they are emitted exactly once per (N, C, rate, ...)
      // combination — on the k loop's FIRST iteration, valid or not — with
      // the first valid k (0 if none) recorded as the display value.
      RadioCount first_valid_k = 0;
      for (const RadioCount k : radios) {
        if (k >= 1 && static_cast<std::size_t>(k) <= c) {
          first_valid_k = k;
          break;
        }
      }
      for (std::size_t ki = 0; ki < radios.size(); ++ki) {
        const RadioCount k = radios[ki];
        const bool k_valid = k >= 1 && static_cast<std::size_t>(k) <= c;
        for (const RateSpec& rate : rates) {
          for (const ScenarioSpec& scenario : scenarios) {
            if (scenario.uses_radios_axis()) {
              if (!k_valid) continue;
            } else if (ki != 0) {
              continue;
            }
            // Grids pin W*H users and edge lists bound theirs; cells the
            // graph cannot describe are skipped like k > |C| combinations.
            if (scenario.kind == ScenarioSpec::Kind::kTopology &&
                !scenario.topology.compatible(n)) {
              continue;
            }
            for (const DynamicsSpec& dyn : dynamics) {
              // Learner engines define their own activation and selection
              // rules, so the granularity/order axes collapse to their
              // first values for them (the budget-scenario precedent for
              // the k axis): one cell per (dynamics, start), not a block
              // of duplicates that differ only in ignored axes.
              for (std::size_t gi = 0; gi < granularities.size(); ++gi) {
                if (!dyn.uses_response_axes() && gi != 0) continue;
                for (std::size_t oi = 0; oi < orders.size(); ++oi) {
                  if (!dyn.uses_response_axes() && oi != 0) continue;
                  for (const SweepStart start : starts) {
                    Cell cell;
                    cell.users = n;
                    cell.channels = c;
                    cell.radios =
                        scenario.uses_radios_axis() ? k : first_valid_k;
                    cell.rate = rate;
                    cell.scenario = scenario;
                    cell.dynamics = dyn;
                    cell.granularity = granularities[gi];
                    cell.order = orders[oi];
                    cell.start = start;
                    cell.index = cells.size();
                    cells.push_back(cell);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t cell_index,
                              std::size_t replicate) {
  // Two chained SplitMix64 rounds decorrelate the coordinates; the result
  // depends only on (base_seed, cell_index, replicate).
  SplitMix64 first(base_seed ^ (0x9e3779b97f4a7c15ULL * (cell_index + 1)));
  SplitMix64 second(first.next() ^
                    (0xd1b54a32d192ed03ULL * (replicate + 1)));
  return second.next();
}

std::uint64_t derive_sim_seed(std::uint64_t base_seed, std::size_t cell_index,
                              std::size_t replicate,
                              std::size_t sim_replicate) {
  // Chain one more mixing round off the run seed so the DES streams are
  // decorrelated both from each other and from the run's own RNG.
  SplitMix64 mix(derive_run_seed(base_seed, cell_index, replicate) ^
                 (0xbf58476d1ce4e5b9ULL * (sim_replicate + 1)));
  return mix.next();
}

std::uint64_t derive_metric_seed(std::uint64_t base_seed,
                                 std::size_t cell_index,
                                 std::size_t replicate) {
  // A distinct mixing constant keeps the metric stream decorrelated from
  // both the run RNG and every DES replay stream.
  SplitMix64 mix(derive_run_seed(base_seed, cell_index, replicate) ^
                 0x94d049bb133111ebULL);
  return mix.next();
}

std::uint64_t derive_dynamics_seed(std::uint64_t base_seed,
                                   std::size_t cell_index,
                                   std::size_t replicate) {
  // A distinct mixing constant keeps the dynamics-engine stream
  // decorrelated from the run, DES and metric streams.
  SplitMix64 mix(derive_run_seed(base_seed, cell_index, replicate) ^
                 0xd6e8feb86659fd93ULL);
  return mix.next();
}

std::string SweepSpec::fingerprint() const {
  std::string out;
  const auto list = [&out](const char* axis, const auto& values,
                           const auto& item_name) {
    out += out.empty() ? "" : "|";
    out += axis;
    out += '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ',';
      out += item_name(values[i]);
    }
  };
  list("users", users, [](std::size_t n) { return std::to_string(n); });
  list("channels", channels, [](std::size_t c) { return std::to_string(c); });
  list("radios", radios, [](RadioCount k) { return std::to_string(k); });
  list("rates", rates, [](const RateSpec& rate) { return rate.name(); });
  list("scenarios", scenarios,
       [](const ScenarioSpec& scenario) { return scenario.name(); });
  list("dynamics", dynamics,
       [](const DynamicsSpec& dyn) { return dyn.name(); });
  list("granularities", granularities, [](ResponseGranularity granularity) {
    return std::string(to_string(granularity));
  });
  list("orders", orders, [](ActivationOrder order) {
    return std::string(to_string(order));
  });
  list("starts", starts,
       [](SweepStart start) { return std::string(to_string(start)); });
  out += "|replicates=" + std::to_string(replicates);
  out += "|seed=" + std::to_string(base_seed);
  out += "|max_activations=" + std::to_string(max_activations);
  out += "|tolerance=" + round_trip_double(tolerance);
  out += "|sim=";
  if (sim_tier) {
    out += sim::to_string(sim_tier->mac);
    out += ':' + round_trip_double(sim_tier->duration_s);
    out += ':' + std::to_string(sim_tier->replicates);
  } else {
    out += "off";
  }
  out += "|metrics=";
  if (metrics.empty()) {
    out += "none";
  } else {
    bool first = true;
    for (const Metric& metric : metrics.metrics()) {
      if (!first) out += ',';
      first = false;
      out += metric.name;
    }
  }
  return out;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  const SweepPlan plan = SweepPlan::build(spec);
  AggregatingSink sink;
  const SessionStats stats =
      run_session(plan, sink, SessionOptions{options.threads});
  SweepResult result = std::move(sink).take_result();
  result.threads_used = stats.threads_used;
  return result;
}

}  // namespace mrca::engine
