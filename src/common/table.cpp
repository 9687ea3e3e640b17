#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mrca {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: at least one column required");
  }
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != headers_.size()) {
    throw std::invalid_argument("Table: row width must match header width");
  }
  rows_.push_back(std::move(row));
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c]))
          << row[c];
    }
    out << " |\n";
  };
  emit_row(headers_);
  out << '|';
  for (const std::size_t w : widths) {
    out << std::string(w + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& os) const { os << to_ascii(); }

std::string Table::fmt(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string Table::fmt(std::size_t value) { return std::to_string(value); }

std::string Table::fmt(int value) { return std::to_string(value); }

std::string Table::label(const char* prefix, std::size_t n) {
  std::string result(prefix);
  result += std::to_string(n);
  return result;
}

}  // namespace mrca
