// json.h — minimal JSON utilities shared by the artifact writers.
//
// Header-only and dependency-free: (1) escaping that covers the full JSON
// string grammar (quotes, backslashes, control characters as \u00XX), (2) a
// deterministic number formatter (finite doubles render with
// up-to-12-significant-digit shortest form, non-finite as null — JSON has no
// inf/nan), and (3) a small recursive-descent parser that reads back the
// ledger lines, recordings and trace_*.json artifacts. The parser preserves
// object key order so tests can assert stable key ordering byte-for-byte.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace axiomcc {

/// Appends `s` to `out` as a quoted, fully escaped JSON string literal.
inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// `s` as a quoted, escaped JSON string literal.
[[nodiscard]] inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_string(out, s);
  return out;
}

/// Appends `v` as a JSON number ("%.12g"); non-finite values become null.
inline void append_json_number(std::string& out, double v) {
  if (v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

/// A parsed JSON document. Objects keep their textual key order so callers
/// can assert on it; `find` does a linear scan (documents here are small).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }

  /// First member named `key`, or nullptr when absent / not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace json_detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    return parse_number();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number " + token);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = parsed;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // Encode the BMP codepoint as UTF-8 (surrogate pairs are not
          // produced by our writers and are rejected).
          if (code >= 0xd800 && code <= 0xdfff) fail("surrogate \\u escape");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace json_detail

/// Parses one JSON document; throws std::runtime_error on malformed input.
[[nodiscard]] inline JsonValue parse_json(std::string_view text) {
  return json_detail::Parser(text).parse_document();
}

}  // namespace axiomcc
