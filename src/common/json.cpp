#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mrca {
namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    skip_ws();
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("json: " + why + " at offset " +
                                std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }
  void skip_ws() {
    while (!eof() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                      text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  JsonValue parse_value() {
    if (depth_ >= JsonValue::kMaxDepth) fail("nesting too deep");
    JsonValue value;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        literal("true");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        literal("false");
        value.kind = JsonValue::Kind::kBool;
        return value;
      case 'n':
        literal("null");
        return value;  // kNull
      default:
        value.kind = JsonValue::Kind::kNumber;
        value.number = parse_number();
        return value;
    }
  }

  void literal(const char* word) {
    const std::size_t length = std::char_traits<char>::length(word);
    if (text_.compare(pos_, length, word) != 0) fail("bad literal");
    pos_ += length;
  }

  JsonValue parse_object() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    ++depth_;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; --depth_; return value; }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      value.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      --depth_;
      return value;
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    ++depth_;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; --depth_; return value; }
    for (;;) {
      skip_ws();
      value.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      --depth_;
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (eof()) fail("dangling escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char digit = text_[pos_++];
            code <<= 4;
            if (digit >= '0' && digit <= '9') code |= digit - '0';
            else if (digit >= 'a' && digit <= 'f') code |= digit - 'a' + 10;
            else if (digit >= 'A' && digit <= 'F') code |= digit - 'A' + 10;
            else fail("bad \\u escape");
          }
          // Our writers only emit \u00XX for control characters; reject
          // anything wider rather than mis-decoding it.
          if (code > 0xff) fail("unsupported \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                      text_[pos_] == '.' || text_[pos_] == 'e' ||
                      text_[pos_] == 'E' || text_[pos_] == '+' ||
                      text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || start == pos_) {
      pos_ = start;
      fail("bad number");
    }
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse();
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (const JsonValue* value = find(key)) return *value;
  throw std::invalid_argument("json: missing key '" + key + "'");
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

[[noreturn]] void wrong_value(const std::string& what, const char* why) {
  throw std::invalid_argument("json: '" + what + "' " + why);
}

}  // namespace

const JsonValue& JsonValue::as_object(const std::string& what) const {
  if (kind != Kind::kObject) wrong_value(what, "is not an object");
  return *this;
}

const std::vector<JsonValue>& JsonValue::as_array(
    const std::string& what) const {
  if (kind != Kind::kArray) wrong_value(what, "is not an array");
  return array;
}

const std::string& JsonValue::as_string(const std::string& what) const {
  if (kind != Kind::kString) wrong_value(what, "is not a string");
  return string;
}

double JsonValue::as_double(const std::string& what) const {
  if (kind == Kind::kNull) return std::numeric_limits<double>::quiet_NaN();
  if (kind != Kind::kNumber) wrong_value(what, "is not a number");
  return number;
}

std::uint64_t JsonValue::as_count(const std::string& what,
                                  std::uint64_t max) const {
  if (kind != Kind::kNumber || !(number >= 0.0) ||
      number != std::floor(number)) {
    wrong_value(what, "is not a non-negative integer");
  }
  // Compared as doubles: a limit <= 2^53 converts exactly, so the cast
  // below only ever sees a value already known to fit.
  const std::uint64_t limit = std::min(max, kMaxCount);
  if (number > static_cast<double>(limit)) {
    throw std::invalid_argument("json: '" + what + "' exceeds the limit " +
                                std::to_string(limit));
  }
  return static_cast<std::uint64_t>(number);
}

}  // namespace mrca
