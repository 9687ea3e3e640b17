// Fixture: a hand-rolled reader (R8 one-tokenizer). std::getline( in a
// comment or a string does not count, and neither does a name that only
// starts like one.
#include <charconv>
#include <sstream>
#include <string>

namespace mrca {

void cancel(std::stop_token token);

int read_cells(const std::string& text) {
  const char* label = "std::stoi";
  int total = label[0] == 's' ? 0 : 1;
  std::istringstream in(text);
  std::string cell;
  while (std::getline(in, cell, ',')) {
    total += std::stoi(cell);
  }
  int value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return total + value;
}

}  // namespace mrca
