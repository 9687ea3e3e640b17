#include "common/format.h"

#include <array>
#include <charconv>
#include <cmath>
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

/// std::from_chars over the whole token; nullopt on any leftover.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::string round_trip_double(double value) { return format_double(value); }

std::string full_precision(double value) {
  return format_double(value, std::chars_format::general, 17);
}

std::vector<std::string> split_fields(std::string_view text, char separator) {
  std::vector<std::string> fields;
  for (;;) {
    const std::size_t end = text.find(separator);
    fields.emplace_back(text.substr(0, end));
    if (end == std::string_view::npos) return fields;
    text.remove_prefix(end + 1);
  }
}

std::optional<double> parse_finite(std::string_view text) {
  const std::optional<double> value = parse_whole<double>(text);
  if (value && !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_unsigned(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

}  // namespace mrca
