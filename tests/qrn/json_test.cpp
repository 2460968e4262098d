// The JSON model, writer and parser: round trips, escaping, strictness.
#include "qrn/json.h"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::json {
namespace {

TEST(JsonValue, KindsAndAccessors) {
    EXPECT_TRUE(Value().is_null());
    EXPECT_TRUE(Value(true).is_bool());
    EXPECT_TRUE(Value(1.5).is_number());
    EXPECT_TRUE(Value("x").is_string());
    EXPECT_TRUE(Value(Array{}).is_array());
    EXPECT_TRUE(Value(Object{}).is_object());
    EXPECT_TRUE(Value(true).as_bool());
    EXPECT_DOUBLE_EQ(Value(2.5).as_number(), 2.5);
    EXPECT_EQ(Value("hi").as_string(), "hi");
    EXPECT_THROW(Value(1.0).as_string(), std::runtime_error);
    EXPECT_THROW(Value("x").as_number(), std::runtime_error);
}

TEST(JsonValue, AsIntegerAcceptsOnlyExactIntegers) {
    constexpr double kTwoTo53 = 9007199254740992.0;
    EXPECT_EQ(Value(0.0).as_integer(), 0);
    EXPECT_EQ(Value(-0.0).as_integer(), 0);
    EXPECT_EQ(Value(42.0).as_integer(), 42);
    EXPECT_EQ(Value(-7.0).as_integer(), -7);
    EXPECT_EQ(Value(kTwoTo53).as_integer(), 9007199254740992LL);
    EXPECT_EQ(Value(-kTwoTo53).as_integer(), -9007199254740992LL);
    EXPECT_EQ(parse("100000").as_integer(), 100000);
    // Fractions, values past 2^53 (where doubles skip integers) and
    // anything an int64 cannot hold are refused, never truncated.
    for (const char* text : {"1.5", "-0.5", "1e300", "-1e300",
                             "18446744073709551616", "9007199254740994"}) {
        EXPECT_THROW((void)parse(text).as_integer(), std::runtime_error) << text;
    }
    EXPECT_THROW((void)Value(std::numeric_limits<double>::quiet_NaN()).as_integer(),
                 std::runtime_error);
    EXPECT_THROW((void)Value(std::numeric_limits<double>::infinity()).as_integer(),
                 std::runtime_error);
    EXPECT_THROW((void)Value("1").as_integer(), std::runtime_error);
}

TEST(JsonValue, ObjectLookup) {
    const Value obj(Object{{"a", Value(1.0)}, {"b", Value("two")}});
    EXPECT_DOUBLE_EQ(obj.at("a").as_number(), 1.0);
    EXPECT_TRUE(obj.contains("b"));
    EXPECT_FALSE(obj.contains("c"));
    EXPECT_THROW(obj.at("c"), std::runtime_error);
    EXPECT_FALSE(Value(1.0).contains("a"));
}

TEST(JsonDump, CompactForms) {
    EXPECT_EQ(Value().dump(), "null");
    EXPECT_EQ(Value(true).dump(), "true");
    EXPECT_EQ(Value(false).dump(), "false");
    EXPECT_EQ(Value(3.0).dump(), "3");
    EXPECT_EQ(Value(-1.5).dump(), "-1.5");
    EXPECT_EQ(Value("a\"b").dump(), "\"a\\\"b\"");
    EXPECT_EQ(Value(Array{Value(1.0), Value(2.0)}).dump(), "[1,2]");
    EXPECT_EQ(Value(Object{{"k", Value("v")}}).dump(), "{\"k\":\"v\"}");
    EXPECT_EQ(Value(Array{}).dump(), "[]");
    EXPECT_EQ(Value(Object{}).dump(), "{}");
}

TEST(JsonDump, EscapesControlCharacters) {
    EXPECT_EQ(Value("a\nb\tc").dump(), "\"a\\nb\\tc\"");
    EXPECT_EQ(Value(std::string("x\x01y")).dump(), "\"x\\u0001y\"");
}

TEST(JsonDump, PrettyPrinting) {
    const Value obj(Object{{"a", Value(Array{Value(1.0)})}});
    const auto text = obj.dump(2);
    EXPECT_NE(text.find("{\n  \"a\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(JsonParse, Scalars) {
    EXPECT_TRUE(parse("null").is_null());
    EXPECT_TRUE(parse("true").as_bool());
    EXPECT_FALSE(parse("false").as_bool());
    EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-2.5e3").as_number(), -2500.0);
    EXPECT_EQ(parse("\"hello\"").as_string(), "hello");
}

// Regression: number parsing used std::strtod, which honours LC_NUMERIC.
// Under a comma-decimal locale (de_DE, sv_SE, ...) "1.5" parsed as 1 with
// trailing junk and evidence JSON differed per machine. parse_number now
// uses std::from_chars, which is locale-independent by construction; this
// pins the exact values a German locale would have broken, plus the
// stricter overflow handling from_chars gives us.
TEST(JsonParse, NumbersAreLocaleIndependent) {
    EXPECT_DOUBLE_EQ(parse("1.5").as_number(), 1.5);
    EXPECT_DOUBLE_EQ(parse("-0.125").as_number(), -0.125);
    EXPECT_DOUBLE_EQ(parse("2.4e-08").as_number(), 2.4e-08);
    EXPECT_THROW(parse("1.5.5"), std::runtime_error);  // one decimal point only
    EXPECT_THROW(parse("1,5"), std::runtime_error);    // comma is never a decimal
    EXPECT_THROW(parse("1e999"), std::runtime_error);  // overflow is an error, not inf
}

TEST(JsonParse, NestedStructures) {
    const auto v = parse(R"({"list": [1, {"deep": true}], "s": "x"})");
    EXPECT_DOUBLE_EQ(v.at("list").as_array()[0].as_number(), 1.0);
    EXPECT_TRUE(v.at("list").as_array()[1].at("deep").as_bool());
    EXPECT_EQ(v.at("s").as_string(), "x");
}

TEST(JsonParse, StringEscapes) {
    EXPECT_EQ(parse(R"("a\"b\\c\/d\n")").as_string(), "a\"b\\c/d\n");
    EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
    EXPECT_EQ(parse(R"("€")").as_string(), "\xe2\x82\xac");
}

TEST(JsonParse, RoundTripsItsOwnOutput) {
    const Value original(Object{
        {"name", Value("norm")},
        {"limits", Value(Array{Value(1e-7), Value(1e-8)})},
        {"nested", Value(Object{{"flag", Value(true)}, {"none", Value()}})},
    });
    for (const int indent : {0, 2}) {
        const Value reparsed = parse(original.dump(indent));
        EXPECT_EQ(reparsed.dump(), original.dump()) << "indent=" << indent;
    }
}

TEST(JsonParse, RejectsMalformedInput) {
    EXPECT_THROW(parse(""), std::runtime_error);
    EXPECT_THROW(parse("{"), std::runtime_error);
    EXPECT_THROW(parse("[1,]"), std::runtime_error);
    EXPECT_THROW(parse("tru"), std::runtime_error);
    EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parse("{\"a\":1} extra"), std::runtime_error);
    EXPECT_THROW(parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(parse("01a"), std::runtime_error);
    EXPECT_THROW(parse("\"bad \\q escape\""), std::runtime_error);
    EXPECT_THROW(parse("\"bad \\u00zz\""), std::runtime_error);
}

TEST(JsonDump, RejectsNonFiniteNumbers) {
    EXPECT_THROW(Value(std::numeric_limits<double>::infinity()).dump(),
                 std::runtime_error);
}

}  // namespace
}  // namespace qrn::json
