// Exact decimal text for doubles: the two spellings every writer and spec
// name uses. Both format into a stack buffer — no stream per value.
#pragma once

#include <string>

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

}  // namespace mrca
