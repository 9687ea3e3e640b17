// Minimal strict RFC-8259 JSON validator for the test suite: a recursive-
// descent parser that accepts exactly the JSON grammar (no bare inf/nan, no
// trailing commas, no unescaped control characters, nothing after the root
// value). Used as the golden check that the sweep writers emit documents
// any standards-compliant consumer can load.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>

namespace mrca::testing {

class StrictJsonParser {
 public:
  explicit StrictJsonParser(const std::string& text) : text_(text) {}

  /// True iff the whole input is one valid JSON value.
  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t length = std::char_traits<char>::length(word);
    if (text_.compare(pos_, length, word) != 0) return fail("bad literal");
    pos_ += length;
    return true;
  }

  bool value() {
    if (eof()) return fail("unexpected end");
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      if (!string()) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return fail("expected ',' or '}'");
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return fail("expected ',' or ']'");
    }
  }

  bool string() {
    ++pos_;  // '"'
    while (true) {
      if (eof()) return fail("unterminated string");
      const unsigned char ch = static_cast<unsigned char>(text_[pos_]);
      if (ch == '"') { ++pos_; return true; }
      if (ch < 0x20) return fail("raw control character in string");
      if (ch == '\\') {
        ++pos_;
        if (eof()) return fail("dangling escape");
        const char escape = text_[pos_];
        if (escape == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (eof() || !std::isxdigit(static_cast<unsigned char>(peek()))) {
              return fail("bad \\u escape");
            }
          }
        } else if (escape != '"' && escape != '\\' && escape != '/' &&
                   escape != 'b' && escape != 'f' && escape != 'n' &&
                   escape != 'r' && escape != 't') {
          return fail("unknown escape");
        }
      }
      ++pos_;
    }
  }

  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected digit");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return true;
  }

  bool number() {
    if (peek() == '-') ++pos_;
    if (eof()) return fail("bare minus");
    if (peek() == '0') {
      ++pos_;  // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// One-shot helper; on failure `why` (if given) receives the reason.
inline bool is_strict_json(const std::string& text,
                           std::string* why = nullptr) {
  StrictJsonParser parser(text);
  const bool ok = parser.parse();
  if (!ok && why != nullptr) *why = parser.error();
  return ok;
}

/// `json` with the value of its first `"key":` member replaced by
/// `replacement` — how tests hand-edit a real document into a malformed
/// one. The value must be a scalar or a flat array; an absent key returns
/// the text unchanged, which the caller's rejection check then catches.
inline std::string with_json_value(std::string json, const std::string& key,
                                   const std::string& replacement) {
  const std::string member = "\"" + key + "\":";
  const std::size_t at = json.find(member);
  if (at == std::string::npos) return json;
  const std::size_t begin = at + member.size();
  const std::size_t end = json[begin] == '['
                              ? json.find(']', begin) + 1
                              : json.find_first_of(",}", begin);
  return json.replace(begin, end - begin, replacement);
}

}  // namespace mrca::testing
