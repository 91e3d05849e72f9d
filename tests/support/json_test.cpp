#include "support/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/guard.hpp"

namespace shelley {
namespace {

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(JsonWriter().begin_object().end_object().str(), "{}");
  EXPECT_EQ(JsonWriter().begin_array().end_array().str(), "[]");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("valve");
  json.key("ops").value(std::uint64_t{4});
  json.key("ok").value(true);
  json.key("owner").null();
  json.end_object();
  EXPECT_EQ(json.str(),
            R"({"name":"valve","ops":4,"ok":true,"owner":null})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter json;
  json.begin_object();
  json.key("items").begin_array();
  json.value("a");
  json.begin_object().key("x").value(std::int64_t{-1}).end_object();
  json.begin_array().value(false).end_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"items":["a",{"x":-1},[false]]})");
}

TEST(JsonWriter, ArrayOfScalars) {
  JsonWriter json;
  json.begin_array();
  json.value(std::uint64_t{1});
  json.value(std::uint64_t{2});
  json.value(std::uint64_t{3});
  json.end_array();
  EXPECT_EQ(json.str(), "[1,2,3]");
}

TEST(JsonWriter, StringEscaping) {
  JsonWriter json;
  json.begin_array();
  json.value("quote:\" backslash:\\ newline:\n tab:\t");
  json.value(std::string_view("control:\x01", 9));
  json.end_array();
  EXPECT_EQ(json.str(),
            "[\"quote:\\\" backslash:\\\\ newline:\\n tab:\\t\","
            "\"control:\\u0001\"]");
}

TEST(JsonWriter, Doubles) {
  JsonWriter json;
  json.begin_array();
  json.value(0.5);
  json.end_array();
  EXPECT_EQ(json.str(), "[0.5]");
}

TEST(JsonWriter, TopLevelScalar) {
  EXPECT_EQ(JsonWriter().value("x").str(), "\"x\"");
}

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, ObjectsPreserveKeyOrderAndChainLookups) {
  const JsonValue doc =
      parse_json(R"({"b":1,"a":{"nested":[1,2,3]},"b":2})");
  const JsonValue::Object& object = doc.as_object();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "b");
  EXPECT_EQ(object[1].first, "a");
  // at()/find() return the FIRST match for duplicate keys.
  EXPECT_DOUBLE_EQ(doc.at("b").as_number(), 1.0);
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.at("a").at("nested").as_array().size(), 3u);
  // find() on absent keys and on non-objects chains safely.
  EXPECT_EQ(doc.find("zzz"), nullptr);
  EXPECT_EQ(doc.at("b").find("anything"), nullptr);
  EXPECT_THROW((void)doc.at("zzz"), JsonParseError);
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t\r\f\b")").as_string(),
            "a\"b\\c/d\n\t\r\f\b");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 encodes as 😀.
  EXPECT_EQ(parse_json(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParser, MalformedInputThrows) {
  EXPECT_THROW((void)parse_json(""), JsonParseError);
  EXPECT_THROW((void)parse_json("{"), JsonParseError);
  EXPECT_THROW((void)parse_json("[1,]"), JsonParseError);
  EXPECT_THROW((void)parse_json("{\"a\":}"), JsonParseError);
  EXPECT_THROW((void)parse_json("\"unterminated"), JsonParseError);
  EXPECT_THROW((void)parse_json("nul"), JsonParseError);
  EXPECT_THROW((void)parse_json("1 trailing"), JsonParseError);
  EXPECT_THROW((void)parse_json(R"("\ud800")"), JsonParseError);
  EXPECT_THROW((void)parse_json(R"("\uZZZZ")"), JsonParseError);
}

// One hostile line of nested containers used to recurse until the stack
// overflowed (SIGSEGV in shelleyd and shelley-monitor).  The nesting is
// bounded by support::guard's recursion limit and rejected with the error
// every line reader already catches.
TEST(JsonParser, DeepNestingIsAParseErrorNotACrash) {
  EXPECT_THROW((void)parse_json(std::string(200000, '[')), JsonParseError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)parse_json(objects), JsonParseError);
  std::string mixed;
  for (int i = 0; i < 50000; ++i) mixed += "[{\"a\":";
  EXPECT_THROW((void)parse_json(mixed), JsonParseError);
}

TEST(JsonParser, NestingUpToTheRecursionLimitParses) {
  // 256 is support::guard's default recursion limit.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const JsonValue doc = parse_json(nested(256));
  EXPECT_TRUE(doc.is_array());
  EXPECT_THROW((void)parse_json(nested(257)), JsonParseError);

  std::string objects;
  for (int i = 0; i < 255; ++i) objects += "{\"a\":";
  objects += "[]" + std::string(255, '}');
  EXPECT_TRUE(parse_json(objects).is_object());
}

TEST(JsonParser, NestingBoundFollowsTheInstalledLimit) {
  support::guard::Limits limits;
  limits.max_recursion_depth = 3;
  const support::guard::ScopedLimits scoped(limits);
  EXPECT_NO_THROW((void)parse_json(R"([{"a":[1]}])"));
  EXPECT_THROW((void)parse_json(R"([{"a":[[1]]}])"), JsonParseError);
}

TEST(JsonParser, KindMismatchThrows) {
  const JsonValue doc = parse_json("[1]");
  EXPECT_THROW((void)doc.as_object(), JsonParseError);
  EXPECT_THROW((void)doc.as_string(), JsonParseError);
  EXPECT_THROW((void)doc.as_array()[0].as_bool(), JsonParseError);
}

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("tr\"icky\n");
  json.key("count").value(std::uint64_t{7});
  json.key("ratio").value(0.25);
  json.key("flags").begin_array().value(true).null().end_array();
  json.end_object();

  const JsonValue doc = parse_json(json.str());
  EXPECT_EQ(doc.at("name").as_string(), "tr\"icky\n");
  EXPECT_DOUBLE_EQ(doc.at("count").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.25);
  EXPECT_TRUE(doc.at("flags").as_array()[0].as_bool());
  EXPECT_TRUE(doc.at("flags").as_array()[1].is_null());
}

}  // namespace
}  // namespace shelley
