#include "llmms/common/json.h"

#include <gtest/gtest.h>

namespace llmms {
namespace {

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool(true));
  EXPECT_EQ(Json::Parse("42")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(Json::Parse("-3.5")->AsDouble(), -3.5);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, IntegerVsDouble) {
  EXPECT_TRUE(Json::Parse("7")->is_integer());
  EXPECT_FALSE(Json::Parse("7.0")->is_integer());
}

TEST(JsonTest, ParseNestedStructures) {
  auto doc = Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["a"].Size(), 3u);
  EXPECT_EQ((*doc)["a"].At(2)["b"].AsString(), "c");
  EXPECT_TRUE((*doc)["d"]["e"].is_null());
}

TEST(JsonTest, MissingKeyReturnsNull) {
  auto doc = Json::Parse(R"({"a": 1})");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE((*doc)["zzz"].is_null());
  EXPECT_FALSE(doc->Contains("zzz"));
  EXPECT_TRUE(doc->Contains("a"));
}

TEST(JsonTest, StringEscapes) {
  auto doc = Json::Parse(R"("line1\nline2\t\"quoted\" \\ A")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "line1\nline2\t\"quoted\" \\ A");
}

TEST(JsonTest, UnicodeEscapeMultibyte) {
  auto doc = Json::Parse(R"("é中")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("-").ok());
  EXPECT_FALSE(Json::Parse("{\"a\": 1,}").ok()) << "trailing comma key";
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

// Every parse error names the byte offset it refers to: the failing byte,
// or the start of the escape, string, array or object that is malformed.
struct ParseErrorCase {
  const char* name;
  std::string input;
  std::string message;
};

class JsonParseErrorTest : public ::testing::TestWithParam<ParseErrorCase> {};

TEST_P(JsonParseErrorTest, MessageCarriesByteOffset) {
  const auto parsed = Json::Parse(GetParam().input);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_EQ(parsed.status().message(), GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Messages, JsonParseErrorTest,
    ::testing::Values(
        ParseErrorCase{"NestingTooDeep", std::string(300, '['),
                       "JSON nesting too deep at offset 257"},
        ParseErrorCase{"UnexpectedEnd", "[1, ",
                       "unexpected end of JSON input at offset 4"},
        ParseErrorCase{"InvalidNumber", R"({"a": 1e+})",
                       "invalid JSON number: 1e+ at offset 6"},
        ParseErrorCase{"TruncatedUnicodeEscape", R"("ab\u12")",
                       "truncated \\u escape at offset 3"},
        ParseErrorCase{"InvalidUnicodeEscape", R"("\u12G4")",
                       "invalid \\u escape at offset 1"},
        ParseErrorCase{"InvalidEscapeCharacter", R"(["\q"])",
                       "invalid escape character at offset 2"},
        ParseErrorCase{"UnterminatedString", R"({"key": "abc)",
                       "unterminated JSON string at offset 8"},
        ParseErrorCase{"UnterminatedArray", " [1, 2",
                       "unterminated JSON array at offset 1"},
        ParseErrorCase{"UnterminatedObject", R"([{"a": 1)",
                       "unterminated JSON object at offset 1"}),
    [](const ::testing::TestParamInfo<ParseErrorCase>& info) {
      return std::string(info.param.name);
    });

TEST(JsonTest, DumpRoundTrip) {
  const std::string text =
      R"({"arr":[1,2.5,"x"],"obj":{"nested":true},"s":"a\nb","z":null})";
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok());
  auto round = Json::Parse(doc->Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*doc, *round);
}

TEST(JsonTest, DumpEscapesControlCharacters) {
  Json doc(std::string("a\x01") + "b");
  EXPECT_EQ(doc.Dump(), "\"a\\u0001b\"");
}

TEST(JsonTest, BuilderApi) {
  Json obj = Json::MakeObject();
  obj.Set("name", "llm-ms");
  obj.Set("count", 3);
  Json arr = Json::MakeArray();
  arr.Append(1);
  arr.Append("two");
  obj.Set("items", std::move(arr));
  EXPECT_EQ(obj["name"].AsString(), "llm-ms");
  EXPECT_EQ(obj["items"].Size(), 2u);
  auto round = Json::Parse(obj.Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(obj, *round);
}

TEST(JsonTest, PrettyPrintParsesBack) {
  Json obj = Json::MakeObject();
  obj.Set("a", Json::MakeArray());
  obj.MutableObject()["a"].Append(1);
  obj.Set("b", "text");
  const std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto round = Json::Parse(pretty);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(obj, *round);
}

TEST(JsonTest, ObjectKeysSortedDeterministically) {
  auto a = Json::Parse(R"({"b":1,"a":2})");
  auto b = Json::Parse(R"({"a":2,"b":1})");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Dump(), b->Dump());
}

TEST(JsonTest, LargeIntegersPreserved) {
  auto doc = Json::Parse("1234567890123");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsInt(), 1234567890123LL);
  EXPECT_EQ(doc->Dump(), "1234567890123");
}

}  // namespace
}  // namespace llmms
