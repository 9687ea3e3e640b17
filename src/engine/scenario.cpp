#include "engine/scenario.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/format.h"

namespace mrca::engine {

namespace {

double parse_number(const std::string& token, const std::string& context) {
  const std::optional<double> value = parse_finite(token);
  if (!value) {
    throw std::invalid_argument("ScenarioSpec: bad number '" + token +
                                "' in '" + context + "'");
  }
  return *value;
}

}  // namespace

std::string ScenarioSpec::name() const {
  switch (kind) {
    case Kind::kBase:
      return "base";
    case Kind::kEnergy:
      return "energy=" + round_trip_double(energy_cost);
    case Kind::kHeterogeneous: {
      std::string out = "het=";
      for (std::size_t i = 0; i < rate_scales.size(); ++i) {
        if (i) out += ':';
        out += round_trip_double(rate_scales[i]);
      }
      return out;
    }
    case Kind::kBudgets: {
      std::string out = "budgets=";
      for (std::size_t i = 0; i < budget_mix.size(); ++i) {
        if (i) out += ':';
        out += std::to_string(budget_mix[i]);
      }
      return out;
    }
    case Kind::kWeights: {
      std::string out = "weights=";
      for (std::size_t i = 0; i < weight_mix.size(); ++i) {
        if (i) out += ':';
        out += round_trip_double(weight_mix[i]);
      }
      return out;
    }
    case Kind::kTopology:
      return "topology=" + topology.name();
  }
  throw std::logic_error("ScenarioSpec: unknown kind");
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  if (text == "base") return spec;
  if (text.rfind("energy=", 0) == 0) {
    spec.kind = Kind::kEnergy;
    spec.energy_cost = parse_number(text.substr(7), text);
    if (spec.energy_cost < 0.0) {
      throw std::invalid_argument("ScenarioSpec: energy cost must be >= 0 in '" +
                                  text + "'");
    }
    return spec;
  }
  if (text.rfind("het=", 0) == 0) {
    spec.kind = Kind::kHeterogeneous;
    for (const std::string& part : split_fields(text.substr(4), ':')) {
      const double scale = parse_number(part, text);
      if (scale <= 0.0) {
        throw std::invalid_argument(
            "ScenarioSpec: rate scales must be > 0 in '" + text + "'");
      }
      spec.rate_scales.push_back(scale);
    }
    return spec;
  }
  if (text.rfind("budgets=", 0) == 0) {
    spec.kind = Kind::kBudgets;
    bool any_positive = false;
    for (const std::string& part : split_fields(text.substr(8), ':')) {
      const std::optional<std::uint64_t> budget = parse_unsigned(part);
      if (!budget || *budget > 1024) {
        throw std::invalid_argument("ScenarioSpec: bad radio count '" +
                                    part + "' in '" + text + "'");
      }
      any_positive |= *budget > 0;
      spec.budget_mix.push_back(static_cast<RadioCount>(*budget));
    }
    if (!any_positive) {
      throw std::invalid_argument(
          "ScenarioSpec: at least one budget must be > 0 in '" + text + "'");
    }
    return spec;
  }
  if (text.rfind("weights=", 0) == 0) {
    spec.kind = Kind::kWeights;
    for (const std::string& part : split_fields(text.substr(8), ':')) {
      const double weight = parse_number(part, text);
      // Mirrors GameModel's reporting-sanity bound: weights are valuation
      // multipliers; magnitudes far from unity are unit mistakes.
      if (weight < 1e-4 || weight > 1e4) {
        throw std::invalid_argument(
            "ScenarioSpec: utility weights must be in [1e-4, 1e4] in '" +
            text + "'");
      }
      spec.weight_mix.push_back(weight);
    }
    return spec;
  }
  if (text.rfind("topology=", 0) == 0) {
    TopologySpec parsed = TopologySpec::parse(text.substr(9));
    // The complete graph IS the single collision domain; normalizing it to
    // kBase here (mirroring GameModel's all-ones-weights normalization)
    // makes "topology=complete" cells literally the base cells, so the
    // bit-identity contract holds by construction.
    if (parsed.kind == TopologySpec::Kind::kComplete) return spec;
    spec.kind = Kind::kTopology;
    spec.topology = std::move(parsed);
    return spec;
  }
  throw std::invalid_argument("ScenarioSpec: unknown scenario '" + text +
                              "' (expected base | energy=<c> | het=<s:..> | "
                              "budgets=<k:..> | weights=<w:..> | "
                              "topology=<t>)");
}

std::vector<ScenarioSpec> ScenarioSpec::parse_list(const std::string& text) {
  std::vector<ScenarioSpec> specs;
  for (const std::string& group : split_fields(text, ';')) {
    if (group.empty()) {
      throw std::invalid_argument("ScenarioSpec: empty scenario group in '" +
                                  text + "'");
    }
    const std::size_t equals = group.find('=');
    if (equals == std::string::npos) {
      specs.push_back(parse(group));
      continue;
    }
    // "energy=0.1,0.3" / "het=2:1,4:1" expand one scenario per comma item.
    const std::string prefix = group.substr(0, equals + 1);
    for (const std::string& item :
         split_fields(group.substr(equals + 1), ',')) {
      specs.push_back(parse(prefix + item));
    }
  }
  return specs;
}

std::vector<RadioCount> ScenarioSpec::budgets(std::size_t users,
                                              std::size_t channels,
                                              RadioCount radios) const {
  std::vector<RadioCount> result(users, radios);
  if (kind == Kind::kBudgets) {
    // Guard the open-struct path too (parse() already enforces this):
    // an empty mix would be a modulo-by-zero below, not a bad spec error.
    if (budget_mix.empty()) {
      throw std::invalid_argument(
          "ScenarioSpec: budgets scenario needs a non-empty budget mix");
    }
    const auto cap = static_cast<RadioCount>(channels);
    for (std::size_t i = 0; i < users; ++i) {
      result[i] = std::min(budget_mix[i % budget_mix.size()], cap);
    }
  }
  return result;
}

RadioCount ScenarioSpec::total_radios(std::size_t users, std::size_t channels,
                                      RadioCount radios) const {
  return total_radio_budget(budgets(users, channels, radios));
}

GameModel ScenarioSpec::make_model(
    std::size_t users, std::size_t channels, RadioCount radios,
    std::shared_ptr<const RateFunction> base_rate) const {
  switch (kind) {
    case Kind::kBase:
      return GameModel(GameConfig(users, channels, radios),
                       std::move(base_rate));
    case Kind::kEnergy:
      return GameModel(GameConfig(users, channels, radios),
                       std::move(base_rate), energy_cost);
    case Kind::kHeterogeneous: {
      if (rate_scales.empty()) {
        throw std::invalid_argument(
            "ScenarioSpec: het scenario needs a non-empty scale profile");
      }
      std::vector<std::shared_ptr<const RateFunction>> rates;
      rates.reserve(channels);
      for (ChannelId c = 0; c < channels; ++c) {
        const double scale = rate_scales[c % rate_scales.size()];
        rates.push_back(scale == 1.0
                            ? base_rate
                            : std::make_shared<ScaledRate>(base_rate, scale));
      }
      return GameModel(channels,
                       std::vector<RadioCount>(users, radios),
                       std::move(rates));
    }
    case Kind::kBudgets:
      return GameModel(channels, budgets(users, channels, radios),
                       {std::move(base_rate)});
    case Kind::kWeights: {
      if (weight_mix.empty()) {
        throw std::invalid_argument(
            "ScenarioSpec: weights scenario needs a non-empty weight mix");
      }
      std::vector<double> weights(users);
      for (std::size_t i = 0; i < users; ++i) {
        weights[i] = weight_mix[i % weight_mix.size()];
      }
      return GameModel(channels, std::vector<RadioCount>(users, radios),
                       {std::move(base_rate)}, /*radio_cost=*/0.0,
                       std::move(weights));
    }
    case Kind::kTopology:
      return GameModel(channels, std::vector<RadioCount>(users, radios),
                       {std::move(base_rate)}, /*radio_cost=*/0.0,
                       /*utility_weights=*/{}, topology.materialize(users));
  }
  throw std::logic_error("ScenarioSpec: unknown kind");
}

}  // namespace mrca::engine
