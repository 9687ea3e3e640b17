#include "core/analysis/nash.h"

#include <algorithm>

namespace mrca {

bool StabilityCheck::holds(const GameModel& model,
                           const StrategyMatrix& strategies,
                           double tolerance) {
  const std::size_t users = strategies.num_users();
  if (next_ >= users) next_ = 0;
  for (std::size_t scanned = 0; scanned < users; ++scanned) {
    if (model.best_single_change(strategies, next_, tolerance, buffers_)) {
      return false;
    }
    if (++next_ == users) next_ = 0;
  }
  return true;
}

bool is_single_move_stable(const GameModel& model,
                           const StrategyMatrix& strategies,
                           double tolerance) {
  return StabilityCheck().holds(model, strategies, tolerance);
}

std::optional<NashViolation> find_nash_violation(
    const GameModel& model, const StrategyMatrix& strategies,
    double tolerance) {
  model.validate(strategies);
  for (UserId user = 0; user < strategies.num_users(); ++user) {
    // Raw units on both sides (the DP is weight-free): the violation
    // verdict matches the base game's for any valuation weights.
    const double current = model.raw_utility(strategies, user);
    BestResponse response = model.best_response(strategies, user);
    if (response.utility > current + tolerance) {
      return NashViolation{user, std::move(response.strategy), current,
                           response.utility};
    }
  }
  return std::nullopt;
}

namespace {

void enumerate_rows_recursive(std::size_t channel, RadioCount remaining,
                              bool exact, std::vector<RadioCount>& current,
                              std::vector<std::vector<RadioCount>>& out) {
  if (channel + 1 == current.size()) {
    // Last channel: either anything from 0..remaining (free budget) or
    // exactly the remainder (full deployment).
    if (exact) {
      current[channel] = remaining;
      out.push_back(current);
    } else {
      for (RadioCount x = 0; x <= remaining; ++x) {
        current[channel] = x;
        out.push_back(current);
      }
    }
    return;
  }
  for (RadioCount x = 0; x <= remaining; ++x) {
    current[channel] = x;
    enumerate_rows_recursive(channel + 1, remaining - x, exact, current, out);
  }
}

std::vector<std::vector<RadioCount>> enumerate_rows(std::size_t num_channels,
                                                    RadioCount budget,
                                                    bool exact) {
  std::vector<std::vector<RadioCount>> rows;
  std::vector<RadioCount> current(num_channels, 0);
  enumerate_rows_recursive(0, budget, exact, current, rows);
  return rows;
}

/// binomial(n, k) as a double (exact up to ~2^53; the size guard only needs
/// magnitude, not the last bit).
double binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0.0;
  k = std::min(k, n - k);
  double result = 1.0;
  for (std::size_t i = 1; i <= k; ++i) {
    result *= static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return result;
}

}  // namespace

std::vector<std::vector<RadioCount>> enumerate_strategy_rows(
    std::size_t num_channels, RadioCount budget) {
  return enumerate_rows(num_channels, budget, /*exact=*/false);
}

std::vector<std::vector<RadioCount>> enumerate_full_rows(
    std::size_t num_channels, RadioCount budget) {
  return enumerate_rows(num_channels, budget, /*exact=*/true);
}

std::size_t for_each_strategy_matrix(
    const GameModel& model,
    const std::function<bool(const StrategyMatrix&)>& visit,
    bool full_deployment_only) {
  // One row list per distinct budget; users share lists.
  const RadioCount max_budget = model.config().radios_per_user;
  std::vector<std::vector<std::vector<RadioCount>>> by_budget(
      static_cast<std::size_t>(max_budget) + 1);
  for (UserId i = 0; i < model.num_users(); ++i) {
    auto& rows = by_budget[static_cast<std::size_t>(model.budget(i))];
    if (rows.empty()) {
      rows = enumerate_rows(model.num_channels(), model.budget(i),
                            full_deployment_only);
    }
  }
  auto rows_of = [&](UserId user) -> const auto& {
    return by_budget[static_cast<std::size_t>(model.budget(user))];
  };

  // Odometer walk: user 0's row is the fastest-turning digit.
  const std::size_t num_users = model.num_users();
  StrategyMatrix matrix(model.config());
  std::size_t visited = 0;
  std::vector<std::size_t> indices(num_users, 0);
  for (UserId i = 0; i < num_users; ++i) matrix.set_row(i, rows_of(i)[0]);
  while (true) {
    ++visited;
    if (!visit(matrix)) return visited;
    std::size_t position = 0;
    while (position < num_users) {
      ++indices[position];
      if (indices[position] < rows_of(position).size()) {
        matrix.set_row(position, rows_of(position)[indices[position]]);
        break;
      }
      indices[position] = 0;
      matrix.set_row(position, rows_of(position)[0]);
      ++position;
    }
    if (position == num_users) return visited;
  }
}

double strategy_space_size(const GameModel& model, bool full_deployment_only) {
  const std::size_t channels = model.num_channels();
  double total = 1.0;
  for (UserId i = 0; i < model.num_users(); ++i) {
    const auto budget = static_cast<std::size_t>(model.budget(i));
    // Free budget: weak compositions of 0..budget over |C| channels,
    // binom(budget + |C|, |C|). Full deployment: binom(budget + |C| - 1,
    // |C| - 1) compositions of exactly `budget`.
    total *= full_deployment_only
                 ? binomial(budget + channels - 1, channels - 1)
                 : binomial(budget + channels, channels);
  }
  return total;
}

std::vector<StrategyMatrix> enumerate_nash_equilibria(
    const GameModel& model, double tolerance, bool full_deployment_only) {
  std::vector<StrategyMatrix> equilibria;
  for_each_strategy_matrix(
      model,
      [&](const StrategyMatrix& matrix) {
        if (model.is_nash_equilibrium(matrix, tolerance)) {
          equilibria.push_back(matrix);
        }
        return true;
      },
      full_deployment_only);
  return equilibria;
}

}  // namespace mrca
