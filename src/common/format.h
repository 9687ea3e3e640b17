// Exact decimal text for doubles, and the one tokenizer that reads spec,
// list and matrix text back. The formatters write into a stack buffer — no
// stream per value; the parsers take whole tokens only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mrca {

/// Shortest decimal form that parses back to the same double
/// (std::to_chars shortest form). The one formatter behind every spec name
/// (RateSpec, ScenarioSpec, DynamicsSpec), so parse(name()) stays the
/// identity and distinct specs never collide as CSV/JSON keys.
std::string round_trip_double(double value);

/// printf's "%.17g" (std::to_chars general form, precision 17): 17
/// significant digits round-trip any double; non-finite values print as
/// inf, -inf and nan. The number cells of the CSV and JSON writers.
std::string full_precision(double value);

/// Every field of `text` between `separator`s, empty and trailing ones
/// included: "" is {""} and "a," is {"a", ""}. Readers reject an empty
/// field, so a doubled or trailing separator is an error, never a
/// silently dropped item.
std::vector<std::string> split_fields(std::string_view text, char separator);

/// The whole token as a finite double (std::from_chars): no whitespace, no
/// '+', no trailing junk, no nan/inf, nothing out of range. The inverse of
/// round_trip_double, bit for bit.
std::optional<double> parse_finite(std::string_view text);

/// The whole token as a decimal unsigned integer, under the same rules.
std::optional<std::uint64_t> parse_unsigned(std::string_view text);

}  // namespace mrca
