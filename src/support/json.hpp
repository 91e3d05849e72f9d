// A minimal streaming JSON writer (objects, arrays, strings, numbers,
// booleans, null) with correct string escaping, plus a small recursive-
// descent parser.  The parser's one grammar has two uses: parse_json builds
// a JsonValue document (the report exporter, the CLI's --json mode, the
// daemon's requests, the trace exporter's round-trip tests), and
// scan_root_strings validates a document and reads a few root string
// members as views, building nothing (the monitor's NDJSON event lines).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shelley {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; must be followed by exactly one value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool boolean);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(double number);
  JsonWriter& null();

  /// The accumulated document.  Valid once every container is closed.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma_if_needed();
  void write_escaped(std::string_view text);

  std::string out_;
  // true = container already has at least one element.
  std::vector<bool> has_elements_;
  bool pending_key_ = false;
};

/// Thrown by parse_json on malformed input.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed JSON document.  Objects preserve key order (they are small in
/// every document this project produces; lookup is a linear scan).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; each throws JsonParseError on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// First value stored under `key`, or nullptr (objects only; returns
  /// nullptr for non-objects as well, so lookups chain safely).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// find(), but throws JsonParseError when the key is absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document (any value type at the root).  Throws
/// JsonParseError on malformed input, trailing non-whitespace, or arrays
/// and objects nested deeper than support::guard's recursion limit.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// One root member that scan_root_strings looks up, and what it found.
/// Reusing a field across calls keeps a value with escapes allocation-free
/// once `scratch` has grown.
struct JsonRootField {
  explicit JsonRootField(std::string_view name) : key(name) {}

  std::string_view key;    ///< in: the (decoded) member name
  bool found = false;      ///< out: the root object has a member `key`
  bool is_string = false;  ///< out: the first such member is a string
  std::string_view text;   ///< out: that string, decoded
  std::string scratch;     ///< holds `text` when the string had escapes
};

/// Runs parse_json's grammar over `text` -- the same nesting bound, and a
/// JsonParseError with the same text and offset wherever parse_json would
/// throw one -- but builds no document.  Returns whether the root is an
/// object.  Each field (keys distinct) then describes the root's first
/// member named `key`, as find() would see it.  A string without escapes
/// is a view of `text`, so it lives as long as the caller's buffer; one
/// with escapes is decoded into the field's scratch.
[[nodiscard]] bool scan_root_strings(std::string_view text,
                                     std::span<JsonRootField> fields);

}  // namespace shelley
