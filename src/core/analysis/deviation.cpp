#include "core/analysis/deviation.h"

#include <sstream>
#include <stdexcept>

#include "core/analysis/deviation_detail.h"
#include "core/game_model.h"

namespace mrca {
namespace {

/// The load `user` sees on a channel (the global column sum, or the
/// closed-neighborhood sum under a topology), through the model's checked
/// accessor: the O(1) benefits below read two channels, so the shape check
/// per read is the whole validation cost.
auto load_seen(const GameModel& model, const StrategyMatrix& strategies,
               UserId user) {
  return [&model, &strategies, user](ChannelId c) {
    return model.perceived_load(strategies, user, c);
  };
}

auto model_rate(const GameModel& model) {
  return [&model](ChannelId c, RadioCount load) {
    return model.rate(c, load);
  };
}

}  // namespace

std::string SingleChange::describe() const {
  std::ostringstream out;
  out << "user " << user << ": ";
  switch (kind) {
    case Kind::kMove:
      out << "move radio " << from << " -> " << to;
      break;
    case Kind::kDeploy:
      out << "deploy spare radio on " << to;
      break;
    case Kind::kPark:
      out << "park radio from " << from;
      break;
  }
  out << " (benefit " << benefit << ")";
  return out.str();
}

double move_benefit(const GameModel& model, const StrategyMatrix& strategies,
                    const RadioMove& move) {
  if (strategies.at(move.user, move.from) <= 0) {
    throw std::logic_error("move_benefit: user has no radio on source channel");
  }
  return detail::move_benefit_at(strategies, move.user, move.from, move.to,
                                 model_rate(model),
                                 load_seen(model, strategies, move.user));
}

double deploy_benefit(const GameModel& model, const StrategyMatrix& strategies,
                      UserId user, ChannelId channel) {
  if (strategies.user_total(user) >= model.budget(user)) {
    throw std::logic_error("deploy_benefit: user has no spare radio");
  }
  return detail::deploy_benefit_at(strategies, user, channel,
                                   model_rate(model), model.radio_cost(),
                                   load_seen(model, strategies, user));
}

double park_benefit(const GameModel& model, const StrategyMatrix& strategies,
                    UserId user, ChannelId channel) {
  if (strategies.at(user, channel) <= 0) {
    throw std::logic_error("park_benefit: user has no radio on that channel");
  }
  return detail::park_benefit_at(strategies, user, channel, model_rate(model),
                                 model.radio_cost(),
                                 load_seen(model, strategies, user));
}

double utility_if_played(const GameModel& model,
                         const StrategyMatrix& strategies, UserId user,
                         std::span<const RadioCount> row) {
  if (row.size() != strategies.num_channels()) {
    throw std::invalid_argument("utility_if_played: wrong row width");
  }
  StrategyMatrix played = strategies;
  played.set_row(user, row);
  return model.raw_utility(played, user);
}

}  // namespace mrca
