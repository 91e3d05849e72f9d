// The reference JSON parser the one-grammar parser is pinned to: the
// recursive-descent parser as it was before strings became views and the
// grammar learned to validate without building.  It builds a JsonValue
// document through the public factories, appending string contents one
// character at a time.  Tests compare parse_json's values and error texts,
// and decode_event_line's verdicts and names, against it.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "support/guard.hpp"
#include "support/json.hpp"

namespace shelley::testing {

class ReferenceJsonParser {
 public:
  explicit ReferenceJsonParser(std::string_view text)
      : text_(text),
        max_depth_(support::guard::limits().max_recursion_depth) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError("json: " + message + " at offset " +
                         std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  // One level of array/object nesting.  Containers nest by recursion, so
  // they are bounded like every other parser's frames (support/guard) and
  // one hostile line cannot overflow the stack.  The error is a
  // JsonParseError because that is what every reader of untrusted lines
  // catches and counts.  A scope object rather than a local copy of the
  // value keeps each container's return a prvalue, so the NDJSON decode
  // pays no extra JsonValue move per line.
  class Nesting {
   public:
    explicit Nesting(ReferenceJsonParser& parser) : parser_(parser) {
      if (parser_.depth_ == parser_.max_depth_) {
        parser_.fail("nesting exceeds the recursion limit (" +
                     std::to_string(parser_.max_depth_) + " levels)");
      }
      ++parser_.depth_;
    }
    ~Nesting() { --parser_.depth_; }

    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    ReferenceJsonParser& parser_;
  };

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': {
        const Nesting nesting(*this);
        return parse_object();
      }
      case '[': {
        const Nesting nesting(*this);
        return parse_array();
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array elements;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(elements));
    }
    while (true) {
      elements.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(elements));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
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
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    return JsonValue::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t max_depth_;
  std::size_t depth_ = 0;
};

/// parse_json as the reference parser computes it.
inline JsonValue reference_parse_json(std::string_view text) {
  return ReferenceJsonParser(text).parse_document();
}

}  // namespace shelley::testing
