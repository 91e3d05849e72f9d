#include "support/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <type_traits>

#include "support/guard.hpp"

namespace shelley {

void JsonWriter::comma_if_needed() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already wrote its separator
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
}

void JsonWriter::write_escaped(std::string_view text) {
  out_ += '"';
  for (char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buffer{};
          std::snprintf(buffer.data(), buffer.size(), "\\u%04x",
                        static_cast<unsigned>(c));
          out_ += buffer.data();
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_elements_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_elements_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma_if_needed();
  write_escaped(name);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma_if_needed();
  write_escaped(text);
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  comma_if_needed();
  out_ += boolean ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  comma_if_needed();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  comma_if_needed();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  comma_if_needed();
  std::array<char, 32> buffer{};
  std::snprintf(buffer.data(), buffer.size(), "%.17g", number);
  out_ += buffer.data();
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_if_needed();
  out_ += "null";
  return *this;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(Array a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(a);
  return v;
}

JsonValue JsonValue::make_object(Object o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(o);
  return v;
}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw JsonParseError(std::string("JsonValue: not a ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw JsonParseError("JsonValue: missing key '" + std::string(key) +
                         "'");
  }
  return *value;
}

namespace {

/// What parse_value<kBuild> returns: the document node when building, and
/// nothing at all when the caller only validates.
struct Skipped {};
template <bool kBuild>
using Parsed = std::conditional_t<kBuild, JsonValue, Skipped>;

/// make() when building; nothing otherwise.
template <bool kBuild, typename Make>
Parsed<kBuild> build(Make&& make) {
  if constexpr (kBuild) {
    return make();
  } else {
    return {};
  }
}

/// The one JSON grammar.  parse_value<true> builds a document and
/// parse_value<false> only validates; both run the same code, so they
/// accept the same texts and fail at the same offsets with the same
/// messages.  Strings are read as views (of the input, or of a scratch
/// string once an escape needs decoding), so validating allocates nothing.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : text_(text),
        max_depth_(support::guard::limits().max_recursion_depth) {}

  JsonValue parse_document() {
    JsonValue value = parse_value<true>();
    expect_end();
    return value;
  }

  bool scan_root(std::span<JsonRootField> fields) {
    for (JsonRootField& field : fields) {
      field.found = false;
      field.is_string = false;
      field.text = {};
    }
    skip_whitespace();
    const bool object = peek() == '{';
    if (object) {
      const Nesting nesting(*this);
      parse_members([&](std::string_view key) {
        JsonRootField* field = nullptr;
        for (JsonRootField& candidate : fields) {
          if (!candidate.found && candidate.key == key) {
            field = &candidate;
            break;
          }
        }
        if (field == nullptr) {
          (void)parse_value<false>();
          return;
        }
        field->found = true;
        skip_whitespace();
        if (peek() == '"') {
          field->is_string = true;
          field->text = parse_string(field->scratch);
        } else {
          (void)parse_value<false>();
        }
      });
    } else {
      (void)parse_value<false>();
    }
    expect_end();
    return object;
  }

 private:
  // The failure paths build their messages out of line, so the hot
  // helpers below (peek, expect, parse_string) stay small enough to inline.
  [[noreturn]] void fail(std::string_view message) const {
    throw JsonParseError("json: " + std::string(message) + " at offset " +
                         std::to_string(pos_));
  }

  [[noreturn]] void fail_expected(char wanted) const {
    fail(std::string("expected '") + wanted + "', found '" + text_[pos_] +
         "'");
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect_end() {
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail_expected(c);
    ++pos_;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  // One level of array/object nesting.  Containers nest by recursion, so
  // they are bounded like every other parser's frames (support/guard) and
  // one hostile line cannot overflow the stack.  The error is a
  // JsonParseError because that is what every reader of untrusted lines
  // catches and counts.  A scope object rather than a local copy of the
  // value keeps each container's return a prvalue.
  class Nesting {
   public:
    explicit Nesting(JsonParser& parser) : parser_(parser) {
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
    JsonParser& parser_;
  };

  template <bool kBuild>
  Parsed<kBuild> parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': {
        const Nesting nesting(*this);
        return parse_object<kBuild>();
      }
      case '[': {
        const Nesting nesting(*this);
        return parse_array<kBuild>();
      }
      case '"': {
        const std::string_view text = parse_string(scratch_);
        return build<kBuild>(
            [&] { return JsonValue::make_string(std::string(text)); });
      }
      case 't':
        expect_literal("true");
        return build<kBuild>([] { return JsonValue::make_bool(true); });
      case 'f':
        expect_literal("false");
        return build<kBuild>([] { return JsonValue::make_bool(false); });
      case 'n':
        expect_literal("null");
        return build<kBuild>([] { return JsonValue(); });
      default: {
        const double number = parse_number();
        return build<kBuild>([&] { return JsonValue::make_number(number); });
      }
    }
  }

  /// Reads an object, calling on_member(key) once per member; on_member
  /// must read exactly one value.  `key` may view scratch_, so it dies
  /// with the next string read.
  template <typename OnMember>
  void parse_members(OnMember&& on_member) {
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_whitespace();
      const std::string_view key = parse_string(scratch_);
      skip_whitespace();
      expect(':');
      on_member(key);
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  /// Reads an array, calling on_element() once per element.
  template <typename OnElement>
  void parse_elements(OnElement&& on_element) {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      on_element();
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  template <bool kBuild>
  Parsed<kBuild> parse_object() {
    if constexpr (kBuild) {
      JsonValue::Object members;
      parse_members([&](std::string_view key) {
        std::string name(key);  // read before the value reuses scratch_
        members.emplace_back(std::move(name), parse_value<true>());
      });
      return JsonValue::make_object(std::move(members));
    } else {
      parse_members([&](std::string_view) { (void)parse_value<false>(); });
      return {};
    }
  }

  template <bool kBuild>
  Parsed<kBuild> parse_array() {
    if constexpr (kBuild) {
      JsonValue::Array elements;
      parse_elements([&] { elements.push_back(parse_value<true>()); });
      return JsonValue::make_array(std::move(elements));
    } else {
      parse_elements([&] { (void)parse_value<false>(); });
      return {};
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

  static void append_utf8(std::string& out, std::uint32_t cp) {
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

  /// Decodes the escape whose backslash was just read, appending it.
  void append_escape(std::string& out) {
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

  /// Reads one string and returns its decoded text: a view of the input
  /// when the string has no escape, else a view of `scratch`, which it
  /// overwrites.
  std::string_view parse_string(std::string& scratch) {
    expect('"');
    const std::size_t start = pos_;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return text_.substr(start, pos_ - 1 - start);
      if (c == '\\') return parse_escaped(start, scratch);
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
    }
  }

  /// The rest of a string from `start` whose first escape's backslash was
  /// just read, decoded into `scratch`.
  std::string_view parse_escaped(std::size_t start, std::string& scratch) {
    scratch.assign(text_.data() + start, pos_ - 1 - start);
    append_escape(scratch);
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return scratch;
      if (c == '\\') {
        append_escape(scratch);
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      scratch += c;
    }
  }

  double parse_number() {
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
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t max_depth_;
  std::size_t depth_ = 0;
  std::string scratch_;  // decoded text of the last escaped string
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool scan_root_strings(std::string_view text,
                       std::span<JsonRootField> fields) {
  return JsonParser(text).scan_root(fields);
}

}  // namespace shelley
