// Tests for the JSON model, writer, and parser.

#include "common/json.h"

#include <gtest/gtest.h>

namespace recpriv {
namespace {

TEST(JsonTest, BuildAndAccess) {
  JsonValue root = JsonValue::Object();
  root.Set("name", JsonValue::String("recpriv"));
  root.Set("p", JsonValue::Number(0.5));
  root.Set("m", JsonValue::Int(50));
  root.Set("ok", JsonValue::Bool(true));
  root.Set("nothing", JsonValue::Null());
  JsonValue& arr = root.Set("values", JsonValue::Array());
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Int(2));

  EXPECT_EQ(*(*root.Get("name"))->AsString(), "recpriv");
  EXPECT_DOUBLE_EQ(*(*root.Get("p"))->AsDouble(), 0.5);
  EXPECT_EQ(*(*root.Get("m"))->AsInt(), 50);
  EXPECT_TRUE(*(*root.Get("ok"))->AsBool());
  EXPECT_TRUE((*root.Get("nothing"))->is_null());
  EXPECT_EQ((*root.Get("values"))->size(), 2u);
  EXPECT_EQ(*(*(*root.Get("values"))->At(1))->AsInt(), 2);
  EXPECT_FALSE(root.Get("missing").ok());
}

TEST(JsonTest, TypeErrors) {
  JsonValue s = JsonValue::String("x");
  EXPECT_FALSE(s.AsBool().ok());
  EXPECT_FALSE(s.AsDouble().ok());
  JsonValue n = JsonValue::Number(1.5);
  EXPECT_FALSE(n.AsInt().ok());  // non-integral
  EXPECT_FALSE(n.AsString().ok());
  EXPECT_FALSE(n.Get("k").ok());
  EXPECT_FALSE(n.At(0).ok());
}

TEST(JsonTest, CompactSerialization) {
  JsonValue root = JsonValue::Object();
  root.Set("a", JsonValue::Int(1));
  root.Set("b", JsonValue::String("x"));
  EXPECT_EQ(root.ToString(), "{\"a\":1,\"b\":\"x\"}");
}

TEST(JsonTest, StringEscaping) {
  JsonValue v = JsonValue::String("quote\" slash\\ nl\n tab\t");
  EXPECT_EQ(v.ToString(), "\"quote\\\" slash\\\\ nl\\n tab\\t\"");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE((*JsonValue::Parse("null")).is_null());
  EXPECT_TRUE(*(*JsonValue::Parse("true")).AsBool());
  EXPECT_FALSE(*(*JsonValue::Parse("false")).AsBool());
  EXPECT_DOUBLE_EQ(*(*JsonValue::Parse("-3.25e2")).AsDouble(), -325.0);
  EXPECT_EQ(*(*JsonValue::Parse("\"hi\"")).AsString(), "hi");
}

TEST(JsonTest, ParseNested) {
  auto v = JsonValue::Parse(
      R"({"outer": {"list": [1, {"x": true}, "s"], "n": 7}})");
  ASSERT_TRUE(v.ok()) << v.status();
  auto* outer = *v->Get("outer");
  auto* list = *outer->Get("list");
  EXPECT_EQ(list->size(), 3u);
  EXPECT_TRUE(*(*(*list->At(1))->Get("x"))->AsBool());
  EXPECT_EQ(*(*outer->Get("n"))->AsInt(), 7);
}

TEST(JsonTest, ParseEscapes) {
  auto v = JsonValue::Parse(R"("a\"b\\c\nA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v->AsString(), "a\"b\\c\nA");
}

TEST(JsonTest, ParseUnicodeBmp) {
  auto v = JsonValue::Parse(R"("é")");  // é
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v->AsString(), "\xC3\xA9");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());          // trailing garbage
  // Surrogate-pair \u escapes are unsupported (raw UTF-8 bytes are fine).
  EXPECT_FALSE(JsonValue::Parse("\"\\uD834\\uDD1E\"").ok());
  EXPECT_TRUE(JsonValue::Parse("\"\xF0\x9D\x84\x9E\"").ok());
  EXPECT_FALSE(JsonValue::Parse("1.2.3").ok());
  // Beyond the double range: no writer could print the value back.
  EXPECT_FALSE(JsonValue::Parse("1e400").ok());
  EXPECT_FALSE(JsonValue::Parse("[-184467440E73709551615]").ok());
  EXPECT_TRUE(JsonValue::Parse("1e-400").ok());  // underflow reads as 0
}

TEST(JsonTest, RoundTripCompact) {
  const std::string doc =
      R"({"arr":[1,2.5,"three",null,true],"obj":{"k":"v"}})";
  auto v = JsonValue::Parse(doc);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), doc);
}

TEST(JsonTest, RoundTripPretty) {
  JsonValue root = JsonValue::Object();
  root.Set("x", JsonValue::Int(1));
  JsonValue& arr = root.Set("list", JsonValue::Array());
  arr.Append(JsonValue::String("a"));
  const std::string pretty = root.ToString(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto back = JsonValue::Parse(pretty);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), root.ToString());
}

TEST(JsonTest, ExactIntegersSurviveAboveTwoToThe53) {
  // 2^53 + 1 is the first integer a double cannot represent; the exact-int
  // sidecar must carry it (and everything up to UINT64_MAX) through
  // build -> serialize -> parse -> accessor without rounding.
  const uint64_t cases[] = {(1ull << 53) + 1, (1ull << 60) + 7,
                            uint64_t(INT64_MAX), UINT64_MAX};
  for (uint64_t u : cases) {
    JsonValue v = JsonValue::Uint(u);
    EXPECT_EQ(v.ToString(), std::to_string(u));
    auto back = JsonValue::Parse(v.ToString());
    ASSERT_TRUE(back.ok()) << u;
    EXPECT_EQ(*back->AsUint64(), u);
  }
  JsonValue min = JsonValue::Int(INT64_MIN);
  EXPECT_EQ(min.ToString(), "-9223372036854775808");
  auto back = JsonValue::Parse(min.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->AsInt(), INT64_MIN);
  EXPECT_FALSE(back->AsUint64().ok());  // negative
}

TEST(JsonTest, AsUint64Rejections) {
  EXPECT_FALSE(JsonValue::Number(1.5).AsUint64().ok());    // non-integral
  EXPECT_FALSE(JsonValue::Number(-1.0).AsUint64().ok());   // negative
  EXPECT_FALSE(JsonValue::Int(-1).AsUint64().ok());        // negative, exact
  EXPECT_FALSE(JsonValue::String("7").AsUint64().ok());    // wrong type
  // An integral double above 2^53 is not exact and must not be trusted.
  EXPECT_FALSE(JsonValue::Number(1e18).AsUint64().ok());
  EXPECT_FALSE((*JsonValue::Parse("1e18")).AsUint64().ok());
  // But the same magnitude in pure integer syntax parses exactly.
  EXPECT_EQ(*(*JsonValue::Parse("1000000000000000000")).AsUint64(),
            1000000000000000000ull);
  // Beyond uint64 range, integer syntax degrades to a double and is
  // rejected by the exact accessor rather than silently rounded.
  EXPECT_FALSE((*JsonValue::Parse("18446744073709551616")).AsUint64().ok());
  EXPECT_EQ(*JsonValue::Uint(0).AsUint64(), 0u);  // zero is fine
}

TEST(JsonTest, AsIntExactBounds) {
  EXPECT_EQ(*JsonValue::Int(INT64_MAX).AsInt(), INT64_MAX);
  EXPECT_EQ(*JsonValue::Int(INT64_MIN).AsInt(), INT64_MIN);
  EXPECT_FALSE(JsonValue::Uint(uint64_t(INT64_MAX) + 1).AsInt().ok());
  EXPECT_FALSE((*JsonValue::Parse("9223372036854775808")).AsInt().ok());
  EXPECT_EQ(*(*JsonValue::Parse("-9223372036854775808")).AsInt(), INT64_MIN);
  // One past INT64_MIN overflows the exact path and degrades to a double;
  // the unsigned exact accessor still rejects it for being negative.
  EXPECT_FALSE((*JsonValue::Parse("-9223372036854775809")).AsUint64().ok());
}

TEST(JsonTest, ExactIntegerOutputMatchesLegacyFormatBelow2To53) {
  // Golden transcripts pin wire bytes: exact-int nodes must print the same
  // digits the old double path produced for every value below 2^53.
  for (int64_t v : {int64_t(0), int64_t(1), int64_t(-1), int64_t(45222),
                    int64_t(-1000000), (int64_t(1) << 53) - 1}) {
    EXPECT_EQ(JsonValue::Int(v).ToString(), std::to_string(v));
  }
}

TEST(JsonTest, DeterministicKeyOrder) {
  JsonValue a = JsonValue::Object();
  a.Set("z", JsonValue::Int(1));
  a.Set("a", JsonValue::Int(2));
  JsonValue b = JsonValue::Object();
  b.Set("a", JsonValue::Int(2));
  b.Set("z", JsonValue::Int(1));
  EXPECT_EQ(a.ToString(), b.ToString());
}

}  // namespace
}  // namespace recpriv
