// Serialization of sweep results for downstream tooling: RFC-4180-ish CSV
// (one row per cell) and a JSON document. Doubles are printed with 17
// significant digits so serialized output is itself a bit-determinism
// witness: two runs agree iff their serializations agree byte-for-byte.
//
// The JSON document is also the shard interchange format: a "spec" header
// (fingerprint + absolute cell range) plus the raw aggregate state (each
// stats object carries Welford's m2 next to the derived stddev), so
// sweep_from_json reconstructs the exact in-memory SweepResult and a
// parse -> merge -> re-serialize round trip is byte-identical to the
// non-sharded run.
#pragma once

#include <iosfwd>
#include <string>

#include "engine/sweep.h"

namespace mrca::engine {

enum class SweepFormat { kTable, kCsv, kJson };

/// Parses "table" | "csv" | "json"; throws std::invalid_argument otherwise.
SweepFormat parse_sweep_format(const std::string& text);

/// RFC-8259 string escaping: quotes, backslashes, and every control
/// character below 0x20 (as \uOOXX or the short forms \b \f \n \r \t).
std::string json_escape(const std::string& text);

/// A double as a strict-JSON number token: 17 significant digits for finite
/// values, "null" for inf/nan (JSON has no non-finite literals).
std::string json_number(double value);

/// Writes a cell's axis coordinates as JSON members, each led by a comma
/// (`,"users":4,...,"start":"random"`): the one spelling shared by the
/// sweep JSON document and the JSONL record stream.
void append_cell_axes_json(std::ostream& out, const SweepSpec::Cell& cell);

std::string sweep_to_csv(const SweepResult& result);
std::string sweep_to_json(const SweepResult& result);
/// Human-readable aligned table (common/table).
std::string sweep_to_table(const SweepResult& result);

/// Parses a document produced by sweep_to_json back into the exact
/// SweepResult it serialized: every count, mean, m2 and extremum is
/// restored bit-for-bit (17-significant-digit round trip), so re-serializing
/// the parse reproduces the input bytes. This is how `mrca merge` loads
/// shard outputs. Throws std::invalid_argument on malformed or foreign
/// documents (including any spec string the library cannot parse back).
SweepResult sweep_from_json(const std::string& text);

void write_sweep(std::ostream& out, const SweepResult& result,
                 SweepFormat format);

}  // namespace mrca::engine
