// The one JSON grammar against its reference (tests/support/
// json_reference.hpp, the parser before strings became views): on seeded
// generated and mutated lines, parse_json must return the reference's value
// or the reference's error text, scan_root_strings must accept and reject
// exactly the same texts with the same errors, and decode_event_line must
// return the reference's parse_json + find verdict and names.  The lines
// cover escaped keys and values, surrogate pairs, duplicate keys, non-string
// values, nesting of 250-259 levels against the bound of 256, numbers such
// as 1e999 and 01, trailing bytes, CR, and byte-level mutations of all of
// these.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "monitor/stream.hpp"
#include "support/json.hpp"
#include "support/json_reference.hpp"

namespace shelley::monitor {
namespace {

constexpr std::size_t kLinesPerSeed = 1u << 17;  // 8 seeds: 1 048 576 lines

/// Seeded NDJSON-ish lines: mostly event objects, some other roots, a
/// quarter of them mutated at the byte level.
class LineGenerator {
 public:
  explicit LineGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    std::string line = pick(10) == 0 ? value(0) : event();
    if (pick(4) == 0) mutate(line);
    return line;
  }

 private:
  std::size_t pick(std::size_t bound) {
    return static_cast<std::size_t>(rng_() % bound);
  }

  template <std::size_t N>
  const char* any(const char* const (&options)[N]) {
    return options[pick(N)];
  }

  std::string whitespace() {
    static const char* const kSpaces[] = {"", "", "", " ", "\t", "\r", "  "};
    return any(kSpaces);
  }

  /// One of `valid`, or now and then one of `invalid`.
  template <std::size_t N, std::size_t M>
  std::string either(const char* const (&valid)[N],
                     const char* const (&invalid)[M]) {
    return pick(6) == 0 ? any(invalid) : any(valid);
  }

  std::string name() {
    static const char* const kValid[] = {
        "\"v1\"",
        "\"pump-17\"",
        "\"a-longer-device-name-0042\"",
        "\"\"",
        "\"dev\\u0069ce-\\u00e9\"",
        "\"\\ud83d\\ude00\"",
        "\"q\\\"uote\"",
        "\"tab\\tnew\\nline\\\\\"",
        "\"\\/slash\\b\\f\\r\"",
        "\"nul\\u0000byte\"",
        "\"raw\xc3\xa9utf8\xff\"",
    };
    static const char* const kInvalid[] = {
        "\"lone\\ud800\"",  "\"low\\udc00first\"", "\"pair\\ud800\\u0041\"",
        "\"bad\\x\"",       "\"bad\\u12G4\"",      "\"ctrl\x01\"",
        "\"cut\\u00",        "\"open",
    };
    return either(kValid, kInvalid);
  }

  std::string key() {
    static const char* const kKeys[] = {
        "\"device\"", "\"op\"",    "\"dev\\u0069ce\"", "\"o\\u0070\"",
        "\"x\"",      "\"extra\"", "\"Device\"",       "\"op \"",
        "\"\"",       "\"\\u0064evice\"",
    };
    return any(kKeys);
  }

  std::string number() {
    static const char* const kValid[] = {"0",    "-1",   "3.25",   "1e3",
                                         "-0",   "2e+2", "1E-400", "123456"};
    static const char* const kInvalid[] = {"1e999", "01", "-",  "1.2.3",
                                           "+1",    ".5", "7-", "0x1f"};
    return either(kValid, kInvalid);
  }

  std::string literal() {
    static const char* const kValid[] = {"true", "false", "null"};
    static const char* const kInvalid[] = {"nul", "tru", "nulll", "False"};
    return either(kValid, kInvalid);
  }

  /// 250-259 levels of arrays around `inner`: across the 256 bound once the
  /// enclosing containers count too.
  std::string deep(const std::string& inner) {
    const std::size_t levels = 250 + pick(10);
    return std::string(levels, '[') + inner + std::string(levels, ']');
  }

  std::string value(int depth) {
    switch (pick(depth > 2 ? 5 : 8)) {
      case 0: return name();
      case 1: return number();
      case 2: return literal();
      case 3: return name();
      case 4: return pick(32) == 0 ? deep(pick(2) == 0 ? "" : name()) : "[]";
      case 5: {
        std::string out = "[";
        const std::size_t count = pick(4);
        for (std::size_t i = 0; i < count; ++i) {
          if (i != 0) out += ",";
          out += whitespace() + value(depth + 1) + whitespace();
        }
        return out + "]";
      }
      default: {
        std::string out = "{";
        const std::size_t count = pick(4);
        for (std::size_t i = 0; i < count; ++i) {
          if (i != 0) out += ",";
          out += key() + whitespace() + ":" + value(depth + 1);
        }
        return out + "}";
      }
    }
  }

  /// An object whose members are mostly device and op, with duplicates,
  /// escaped spellings, non-string values and extra members mixed in.
  std::string event() {
    std::vector<std::string> members;
    if (pick(10) != 0) {
      members.push_back((pick(6) == 0 ? "\"dev\\u0069ce\"" : "\"device\"") +
                        whitespace() + ":" + whitespace() +
                        (pick(10) == 0 ? value(1) : name()));
    }
    if (pick(10) != 0) {
      members.push_back((pick(6) == 0 ? "\"o\\u0070\"" : "\"op\"") +
                        whitespace() + ":" + whitespace() +
                        (pick(10) == 0 ? value(1) : name()));
    }
    const std::size_t extra = pick(3);
    for (std::size_t i = 0; i < extra; ++i) {
      members.push_back(key() + ":" + whitespace() + value(1));
    }
    for (std::size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[pick(i)]);
    }
    std::string out = whitespace() + "{" + whitespace();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += "," + whitespace();
      out += members[i];
    }
    out += whitespace() + "}";
    static const char* const kTrailers[] = {"", " ", "\r", "\t\r"};
    static const char* const kJunk[] = {"x", "}", ",", "{}"};
    return out + either(kTrailers, kJunk);
  }

  void mutate(std::string& line) {
    static const char* const kTokens[] = {
        "{",  "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83d",
        "1e", "-", " ", "\r", "\n", "\x01", "\xff", "null", "\"op\"",
    };
    const std::size_t rounds = 1 + pick(3);
    for (std::size_t round = 0; round < rounds; ++round) {
      switch (pick(5)) {
        case 0:
          if (!line.empty()) {
            line[pick(line.size())] = static_cast<char>(pick(256));
          }
          break;
        case 1:
          if (!line.empty()) line.erase(pick(line.size()), 1 + pick(4));
          break;
        case 2: line.insert(pick(line.size() + 1), any(kTokens)); break;
        case 3:
          if (!line.empty()) line.resize(pick(line.size()));
          break;
        default:
          if (!line.empty()) {
            const std::size_t begin = pick(line.size());
            line.insert(pick(line.size() + 1),
                        line.substr(begin, 1 + pick(8)));
          }
          break;
      }
    }
  }

  std::mt19937_64 rng_;
};

/// A parse result: the value, or the JsonParseError text.
struct Outcome {
  std::optional<JsonValue> value;
  std::string error;
};

template <typename Parse>
Outcome outcome_of(Parse&& parse) {
  try {
    return Outcome{parse(), {}};
  } catch (const JsonParseError& error) {
    return Outcome{std::nullopt, error.what()};
  }
}

/// Deep equality; numbers compare bit for bit.
bool same_value(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.as_bool() == b.as_bool();
    case JsonValue::Kind::kNumber:
      return std::bit_cast<std::uint64_t>(a.as_number()) ==
             std::bit_cast<std::uint64_t>(b.as_number());
    case JsonValue::Kind::kString: return a.as_string() == b.as_string();
    case JsonValue::Kind::kArray: {
      const JsonValue::Array& x = a.as_array();
      const JsonValue::Array& y = b.as_array();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!same_value(x[i], y[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      const JsonValue::Object& x = a.as_object();
      const JsonValue::Object& y = b.as_object();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first) return false;
        if (!same_value(x[i].second, y[i].second)) return false;
      }
      return true;
    }
  }
  return false;
}

/// Today's event rule, from the reference document.
std::optional<std::pair<std::string, std::string>> reference_event(
    const Outcome& reference) {
  if (!reference.value) return std::nullopt;
  const JsonValue* device = reference.value->find("device");
  const JsonValue* op = reference.value->find("op");
  if (device == nullptr || op == nullptr || !device->is_string() ||
      !op->is_string()) {
    return std::nullopt;
  }
  return std::make_pair(device->as_string(), op->as_string());
}

std::string printable(std::string_view line) {
  std::string out;
  for (const char c : line) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 15];
    }
  }
  return out;
}

class EventLineExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventLineExactness, GrammarScanAndDecoderMatchTheReference) {
  LineGenerator generator(GetParam());
  EventLine event;
  std::array<JsonRootField, 2> fields{JsonRootField("device"),
                                      JsonRootField("op")};
  std::size_t accepted_documents = 0;
  std::size_t accepted_events = 0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kLinesPerSeed && failures < 10; ++i) {
    const std::string line = generator.next();
    const Outcome reference =
        outcome_of([&] { return shelley::testing::reference_parse_json(line); });
    const Outcome parsed = outcome_of([&] { return parse_json(line); });
    const Outcome scanned = outcome_of([&] {
      (void)scan_root_strings(line, fields);
      return JsonValue();
    });
    const auto expected = reference_event(reference);
    const bool decoded = decode_event_line(line, event);

    bool ok = parsed.value.has_value() == reference.value.has_value() &&
              parsed.error == reference.error &&
              (!parsed.value || same_value(*parsed.value, *reference.value));
    ok = ok && scanned.value.has_value() == reference.value.has_value() &&
         scanned.error == reference.error;
    ok = ok && decoded == expected.has_value() &&
         (!decoded || (event.device() == expected->first &&
                       event.op() == expected->second));
    if (!ok) {
      ++failures;
      ADD_FAILURE() << "line " << i << ": " << printable(line)
                    << "\n  reference: " << reference.error
                    << "\n  parse_json: " << parsed.error
                    << "\n  scan: " << scanned.error
                    << "\n  decoded: " << decoded;
    }
    accepted_documents += reference.value.has_value() ? 1 : 0;
    accepted_events += expected.has_value() ? 1 : 0;
  }
  // The mix exercises both verdicts on every seed.
  EXPECT_GT(accepted_events, kLinesPerSeed / 10);
  EXPECT_LT(accepted_documents, kLinesPerSeed * 9 / 10);
}

// Eight seeds rather than one long run, so ctest spreads them over cores.
INSTANTIATE_TEST_SUITE_P(Seeds, EventLineExactness,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(EventLine, EscapedNamesDecodeIntoTheirOwnScratch) {
  EventLine event;
  const std::string line =
      R"({"x":"\u0041\u0042","dev\u0069ce":"v\u0031","op":"o\u0070en"})";
  ASSERT_TRUE(decode_event_line(line, event));
  EXPECT_EQ(event.device(), "v1");
  EXPECT_EQ(event.op(), "open");
}

TEST(EventLine, FirstMemberDecidesLikeFind) {
  EventLine event;
  // A later string "device" does not rescue a non-string first one.
  EXPECT_FALSE(decode_event_line(R"({"device":1,"op":"a","device":"d"})",
                                 event));
  ASSERT_TRUE(decode_event_line(R"({"device":"d","op":"a","device":2})",
                                event));
  EXPECT_EQ(event.device(), "d");
  EXPECT_FALSE(decode_event_line(R"(["device","op"])", event));
  EXPECT_FALSE(decode_event_line(R"({"device":"d","op":"a"} x)", event));
}

}  // namespace
}  // namespace shelley::monitor
