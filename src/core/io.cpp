#include "core/io.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <vector>

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
  std::istringstream row_stream(key);
  std::string row_text;
  while (std::getline(row_stream, row_text, '|')) {
    std::vector<RadioCount> row;
    std::istringstream cell_stream(row_text);
    std::string cell;
    while (std::getline(cell_stream, cell, ',')) {
      // Trim surrounding whitespace.
      const auto first = cell.find_first_not_of(" \t");
      if (first == std::string::npos) {
        throw std::invalid_argument("parse_matrix: empty cell");
      }
      const auto last = cell.find_last_not_of(" \t");
      const std::string token = cell.substr(first, last - first + 1);
      std::size_t consumed = 0;
      int value = 0;
      try {
        value = std::stoi(token, &consumed);
      } catch (const std::exception&) {
        throw std::invalid_argument("parse_matrix: non-numeric cell '" +
                                    token + "'");
      }
      if (consumed != token.size()) {
        throw std::invalid_argument("parse_matrix: trailing junk in cell '" +
                                    token + "'");
      }
      row.push_back(value);
    }
    rows.push_back(std::move(row));
  }
  return StrategyMatrix::from_rows(config, rows);
}

}  // namespace mrca
