// Fixture: the shared tokenizer is where std::from_chars belongs (R8
// one-tokenizer allows common/format.cpp and common/json.cpp).
#include <charconv>
#include <cstdint>
#include <string_view>

namespace mrca {

bool parse_unsigned(std::string_view text, std::uint64_t& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

}  // namespace mrca
