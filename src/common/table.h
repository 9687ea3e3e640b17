// Lightweight aligned ASCII table rendering for the text reports: the
// `mrca sweep --format table` writer and the single-game strategy printout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mrca {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> row);

  std::size_t rows() const noexcept { return rows_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Renders as an aligned ASCII table with a header rule.
  std::string to_ascii() const;

  void print(std::ostream& os) const;

  /// Formats a double with fixed precision (helper for mixed rows).
  static std::string fmt(double value, int precision = 4);
  static std::string fmt(std::size_t value);
  static std::string fmt(int value);

  /// Builds a prefixed label like "u3" or "c12" (for user/channel columns).
  static std::string label(const char* prefix, std::size_t n);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mrca
