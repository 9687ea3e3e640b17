#include "common/format.h"

#include <array>
#include <charconv>
#include <stdexcept>
#include <system_error>

namespace mrca {
namespace {

/// std::to_chars(value, form...) into a stack buffer. Every form used here
/// fits: the longest is "-2.2250738585072014e-308", 24 chars.
template <typename... Form>
std::string format_double(double value, Form... form) {
  std::array<char, 32> buffer;
  const auto [end, ec] = std::to_chars(
      buffer.data(), buffer.data() + buffer.size(), value, form...);
  if (ec != std::errc{}) {
    throw std::logic_error("double formatting overflowed its buffer");
  }
  return std::string(buffer.data(), end);
}

}  // namespace

std::string round_trip_double(double value) { return format_double(value); }

std::string full_precision(double value) {
  return format_double(value, std::chars_format::general, 17);
}

}  // namespace mrca
