#include "core/io.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/format.h"
#include "common/table.h"

namespace mrca {

std::string render_matrix(const StrategyMatrix& strategies) {
  std::ostringstream out;
  out << "      ";
  for (ChannelId c = 0; c < strategies.num_channels(); ++c) {
    out << " c" << std::left << std::setw(3) << (c + 1);
  }
  out << '\n';
  for (UserId i = 0; i < strategies.num_users(); ++i) {
    out << "  u" << std::left << std::setw(3) << (i + 1);
    for (ChannelId c = 0; c < strategies.num_channels(); ++c) {
      out << ' ' << std::right << std::setw(3) << strategies.at(i, c) << ' ';
    }
    out << '\n';
  }
  return out.str();
}

std::string render_occupancy(const StrategyMatrix& strategies) {
  // Build per-channel owner stacks, lowest radio first.
  std::vector<std::vector<std::string>> stacks(strategies.num_channels());
  for (ChannelId c = 0; c < strategies.num_channels(); ++c) {
    for (UserId i = 0; i < strategies.num_users(); ++i) {
      for (RadioCount r = 0; r < strategies.at(i, c); ++r) {
        stacks[c].push_back(Table::label("u", i + 1));
      }
    }
  }
  std::size_t height = 0;
  for (const auto& stack : stacks) height = std::max(height, stack.size());

  std::ostringstream out;
  for (std::size_t level = height; level-- > 0;) {
    out << "  ";
    for (const auto& stack : stacks) {
      if (level < stack.size()) {
        out << '[' << std::left << std::setw(3) << stack[level] << ']';
      } else {
        out << "     ";
      }
    }
    out << '\n';
  }
  out << "  ";
  for (ChannelId c = 0; c < strategies.num_channels(); ++c) {
    out << " c" << std::left << std::setw(3) << (c + 1);
  }
  out << '\n';
  return out.str();
}

std::string render_loads(const StrategyMatrix& strategies) {
  std::ostringstream out;
  out << "loads: [";
  const auto loads = strategies.channel_loads();
  for (std::size_t c = 0; c < loads.size(); ++c) {
    out << (c ? ", " : "") << loads[c];
  }
  out << "] (delta = " << (strategies.max_load() - strategies.min_load())
      << ")";
  return out.str();
}

std::string render_utilities(const GameModel& model,
                             const StrategyMatrix& strategies) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  double total = 0.0;
  for (UserId i = 0; i < strategies.num_users(); ++i) {
    const double u = model.utility(strategies, i);
    total += u;
    out << "  U(u" << (i + 1) << ") = " << u << '\n';
  }
  out << "  welfare = " << total << " (optimum " << model.optimal_welfare()
      << ")\n";
  return out.str();
}

StrategyMatrix parse_matrix(const GameConfig& config, const std::string& key) {
  std::vector<std::vector<RadioCount>> rows;
  for (const std::string& row_text : split_fields(key, '|')) {
    std::vector<RadioCount> row;
    for (const std::string& cell : split_fields(row_text, ',')) {
      // Trim surrounding whitespace.
      const auto first = cell.find_first_not_of(" \t");
      if (first == std::string::npos) {
        throw std::invalid_argument("parse_matrix: empty cell");
      }
      const auto last = cell.find_last_not_of(" \t");
      const std::string token = cell.substr(first, last - first + 1);
      const std::optional<std::uint64_t> value = parse_unsigned(token);
      if (!value || *value > static_cast<std::uint64_t>(
                                 std::numeric_limits<RadioCount>::max())) {
        throw std::invalid_argument("parse_matrix: bad cell '" + token +
                                    "' (expected a radio count)");
      }
      row.push_back(static_cast<RadioCount>(*value));
    }
    rows.push_back(std::move(row));
  }
  return StrategyMatrix::from_rows(config, rows);
}

}  // namespace mrca
