// Minimal JSON DOM for re-reading this project's OWN strict-JSON output:
// sweep documents (engine/sweep_io), per-shard progress lines
// (engine/sinks' --progress-json stream), and the farm session manifest.
//
// Deliberately not a general-purpose parser: it accepts exactly the
// RFC-8259 subset our writers emit (objects, arrays, strings with \u00XX
// control escapes, finite numbers, true/false/null), keeps object keys in
// document order, and rejects adversarial nesting up front. Numbers are
// held as double — every value we serialize, counts included, is exactly
// representable, and 17-significant-digit text round-trips the bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mrca {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Key/value pairs in document order (duplicates keep first-wins via
  /// at()/find(), which scan front to back).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Our own writers nest a handful of levels; anything deeper is a
  /// foreign (or adversarial) document, rejected before the recursive
  /// descent can exhaust the stack.
  static constexpr std::size_t kMaxDepth = 64;

  /// Parses one complete document (trailing content is an error). Throws
  /// std::invalid_argument with a "json: ..." message on malformed input.
  static JsonValue parse(const std::string& text);

  /// Object member lookup; throws std::invalid_argument when this is not
  /// an object or the key is absent.
  const JsonValue& at(const std::string& key) const;
  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const noexcept;

  /// The largest count as_count accepts: every integer up to 2^53 is an
  /// exact double, so the check happens before any cast can overflow.
  static constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 53;

  /// Checked typed reads. Each throws std::invalid_argument with a
  /// "json: '<what>' ..." message when the value has another kind or is
  /// out of range; `what` names the field for the reader's error message.
  const JsonValue& as_object(const std::string& what) const;
  const std::vector<JsonValue>& as_array(const std::string& what) const;
  const std::string& as_string(const std::string& what) const;
  /// A number (the parser admits only finite ones); null reads back as
  /// the NaN our writers serialize as null.
  double as_double(const std::string& what) const;
  /// A non-negative integer no larger than `max` (itself at most
  /// kMaxCount).
  std::uint64_t as_count(const std::string& what,
                         std::uint64_t max = kMaxCount) const;
};

}  // namespace mrca
