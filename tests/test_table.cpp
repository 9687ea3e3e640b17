#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mrca {
namespace {

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowWidthMustMatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
  table.add_row({"1", "2"});
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(Table, CellAccess) {
  Table table({"x"});
  table.add_row({"hello"});
  EXPECT_EQ(table.cell(0, 0), "hello");
  EXPECT_THROW(table.cell(1, 0), std::out_of_range);
  EXPECT_THROW(table.cell(0, 1), std::out_of_range);
}

TEST(Table, AsciiContainsHeadersAndValues) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("name"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("22"), std::string::npos);
  EXPECT_NE(ascii.find("|-"), std::string::npos);  // header rule
}

TEST(Table, AsciiAlignsColumns) {
  Table table({"h"});
  table.add_row({"longer-cell"});
  const std::string ascii = table.to_ascii();
  // Every line has the same length.
  std::istringstream lines(ascii);
  std::string line;
  std::size_t expected = 0;
  while (std::getline(lines, line)) {
    if (expected == 0) expected = line.size();
    EXPECT_EQ(line.size(), expected);
  }
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 3), "3.142");
  EXPECT_EQ(Table::fmt(std::size_t{42}), "42");
  EXPECT_EQ(Table::fmt(-7), "-7");
}

TEST(Table, PrintWritesToStream) {
  Table table({"col"});
  table.add_row({"val"});
  std::ostringstream out;
  table.print(out);
  EXPECT_EQ(out.str(), table.to_ascii());
}

}  // namespace
}  // namespace mrca
