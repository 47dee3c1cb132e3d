#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "oracles/json_number.hpp"

namespace vdap::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.dump(), "null");
}

TEST(JsonValue, Scalars) {
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value(-7).dump(), "-7");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(JsonValue, IntDoubleInterop) {
  Value i(3);
  Value d(3.5);
  EXPECT_DOUBLE_EQ(i.as_double(), 3.0);
  EXPECT_EQ(d.as_int(), 3);
  EXPECT_TRUE(i.is_number());
  EXPECT_TRUE(d.is_number());
}

TEST(JsonValue, ObjectInsertAndLookup) {
  Value v;
  v["a"] = 1;
  v["b"]["nested"] = "x";
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("nested").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
  EXPECT_EQ(v.find("zz"), nullptr);
  EXPECT_THROW(v.at("zz"), std::out_of_range);
}

TEST(JsonValue, TypedGettersWithDefaults) {
  Value v;
  v["i"] = 5;
  v["d"] = 1.5;
  v["s"] = "str";
  v["b"] = true;
  EXPECT_EQ(v.get_int("i"), 5);
  EXPECT_EQ(v.get_int("missing", -1), -1);
  EXPECT_DOUBLE_EQ(v.get_double("d"), 1.5);
  EXPECT_DOUBLE_EQ(v.get_double("i"), 5.0);  // int promotes
  EXPECT_EQ(v.get_string("s"), "str");
  EXPECT_EQ(v.get_string("i", "def"), "def");  // wrong type -> default
  EXPECT_TRUE(v.get_bool("b"));
}

TEST(JsonValue, ArrayAccess) {
  Value v(Array{1, "two", 3.0});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(std::size_t{0}).as_int(), 1);
  EXPECT_EQ(v.at(std::size_t{1}).as_string(), "two");
  EXPECT_THROW(v.at(std::size_t{3}), std::out_of_range);
}

TEST(JsonValue, WrongTypeAccessThrows) {
  Value v(42);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(Value("x").as_int(), std::runtime_error);
}

TEST(JsonParse, Document) {
  Value v = parse(R"({"name":"vdap","version":1,"pi":3.25,
                      "tags":["edge","cav"],"nested":{"ok":true},
                      "none":null})");
  EXPECT_EQ(v.at("name").as_string(), "vdap");
  EXPECT_EQ(v.at("version").as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("pi").as_double(), 3.25);
  EXPECT_EQ(v.at("tags").size(), 2u);
  EXPECT_TRUE(v.at("nested").at("ok").as_bool());
  EXPECT_TRUE(v.at("none").is_null());
}

TEST(JsonParse, RoundTripCompact) {
  const char* docs[] = {
      "null",
      "true",
      "-12",
      "1.5",
      "\"a\\nb\"",
      "[]",
      "{}",
      "[1,2,[3,{\"k\":\"v\"}]]",
      "{\"a\":{\"b\":[false,null,0.5]}}",
  };
  for (const char* d : docs) {
    Value v = parse(d);
    EXPECT_EQ(v, parse(v.dump())) << d;
  }
}

TEST(JsonParse, PrettyRoundTrips) {
  Value v = parse(R"({"a":[1,2],"b":{"c":"d"}})");
  EXPECT_EQ(parse(v.pretty()), v);
  EXPECT_NE(v.pretty().find('\n'), std::string::npos);
}

TEST(JsonParse, StringEscapes) {
  Value v = parse(R"("line\n\ttab \"quote\" back\\slash Aé")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"quote\" back\\slash A\xC3\xA9");
  // Escaped control characters round-trip.
  Value s(std::string("\x01 control"));
  EXPECT_EQ(parse(s.dump()), s);
}

TEST(JsonParse, Numbers) {
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_EQ(parse("-0").as_int(), 0);
  EXPECT_EQ(parse("9223372036854775807").as_int(), INT64_MAX);
  EXPECT_TRUE(parse("1e3").is_double());
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5E-1").as_double(), -0.25);
}

TEST(JsonParse, ErrorsThrow) {
  const char* bad[] = {
      "",      "{",          "[1,",     "{\"a\":}", "tru",
      "nul",   "\"unterm",   "1 2",     "{'a':1}",  "[1,]",
      "{\"a\":1,}",
  };
  for (const char* d : bad) {
    EXPECT_THROW(parse(d), std::runtime_error) << d;
    EXPECT_FALSE(try_parse(d).has_value()) << d;
  }
}

TEST(JsonParse, TryParseOk) {
  auto v = try_parse("[1,2,3]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 3u);
}

TEST(JsonParse, WhitespaceTolerant) {
  Value v = parse("  \n\t { \"a\" : [ 1 , 2 ] } \r\n ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, DeterministicObjectOrder) {
  // Keys serialize sorted, so semantically equal docs dump identically.
  Value a = parse(R"({"z":1,"a":2})");
  Value b = parse(R"({"a":2,"z":1})");
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(JsonParse, DoubleRoundTripPrecision) {
  double values[] = {0.1, 1.0 / 3.0, 1e-9, 123456789.123456789, -2.5e300};
  for (double d : values) {
    Value v(d);
    EXPECT_DOUBLE_EQ(parse(v.dump()).as_double(), d) << d;
  }
}

// --- byte identity with the pre-to_chars codec (tests/oracles) ------------

std::string appended(double d) {
  std::string out;
  append_double(out, d);
  return out;
}

TEST(JsonDouble, MatchesProbeLoopOnRandomBitPatterns) {
  std::mt19937_64 rng(20181018);
  for (int i = 0; i < 1'000'000; ++i) {
    const double d = std::bit_cast<double>(rng());
    ASSERT_EQ(appended(d), oracle::format_double(d))
        << std::bit_cast<std::uint64_t>(d);
  }
}

TEST(JsonDouble, MatchesProbeLoopAroundEveryPowerOfTwo) {
  // The shortest round-trip digits are hardest next to powers of two,
  // where the spacing of doubles halves: every double within 64 ulp of
  // 2^e, for every e from the least subnormal to the top exponent.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    double d = p;
    for (int k = 0; k < 64; ++k) d = std::nextafter(d, -INFINITY);
    for (int k = 0; k <= 128; ++k) {
      ASSERT_EQ(appended(d), oracle::format_double(d)) << "2^" << e << " k=" << k;
      d = std::nextafter(d, INFINITY);
    }
  }
}

TEST(JsonDouble, MatchesProbeLoopOnSpecialAndSampleValues) {
  const double specials[] = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 2.2250738585072009e-308,
      DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON, 1e16, 1e17, 1e21, 1e22, 1e23,
      9007199254740993.0, 0.1, 1.0 / 3.0, 1e-9, 123456789.123456789, -2.5e300,
      7.1202363472230444e-307, 1.5, 100.0, 12.5, 25.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (double d : specials) {
    EXPECT_EQ(appended(d), oracle::format_double(d)) << d;
    EXPECT_EQ(Value(d).dump(), oracle::format_double(d)) << d;
  }
  EXPECT_EQ(appended(-0.0), "-0");
  EXPECT_EQ(appended(std::nan("")), "null");
  // Every subnormal exponent, with random mantissas.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100'000; ++i) {
    const double d = std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFull);
    ASSERT_EQ(appended(d), oracle::format_double(d)) << d;
  }
  // The wire's own shape: latency samples drawn from N(25, 8).
  std::normal_distribution<double> latency(25.0, 8.0);
  for (int i = 0; i < 200'000; ++i) {
    const double d = latency(rng);
    ASSERT_EQ(appended(d), oracle::format_double(d)) << d;
  }
}

::testing::AssertionResult same_number(const Value& got, const Value& want) {
  if (got.type() != want.type()) {
    return ::testing::AssertionFailure() << "type " << static_cast<int>(got.type())
                                         << " vs " << static_cast<int>(want.type());
  }
  if (got.is_int() ? got.as_int() == want.as_int()
                   : std::bit_cast<std::uint64_t>(got.as_double()) ==
                         std::bit_cast<std::uint64_t>(want.as_double())) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got.dump() << " vs " << want.dump();
}

TEST(JsonParse, NumberTokensReadAsStrtodDid) {
  const char* tokens[] = {"+5",     "-+5",      "-.5",  "1e",   "1e+",
                          "1e999",  "-1e999",   "1e-400", "4.9e-324",
                          "1.2.3",  "-0",       "-0.0", "0",    "00012",
                          "2e-324", "2.5e-324", "1e308", "1.7976931348623159e308",
                          "99999999999999999999", "-9223372036854775808",
                          "9223372036854775808", "--5", "5-", ".", "e5", "1E5",
                          "0.30000000000000004", "123456789012345678901234567890"};
  for (const char* tok : tokens) {
    std::optional<Value> got = try_parse(tok);
    ASSERT_TRUE(got.has_value()) << tok;
    EXPECT_TRUE(same_number(*got, oracle::parse_number(tok))) << tok;
  }
  EXPECT_TRUE(std::isinf(parse("1e999").as_double()));
  EXPECT_EQ(parse("1e-400").as_double(), 0.0);
  EXPECT_EQ(parse("+5").as_double(), 5.0);
  EXPECT_EQ(parse("-+5").as_double(), 0.0);
  EXPECT_EQ(parse("1.2.3").as_double(), 1.2);
  EXPECT_TRUE(parse("-0").is_int());
  // Token soup over the number alphabet: every token the parser accepts
  // reads to the same value as before.
  std::mt19937_64 rng(99);
  const std::string alphabet = "0123456789.eE+-";
  for (int i = 0; i < 200'000; ++i) {
    std::string tok;
    const std::size_t len = 1 + rng() % 14;
    for (std::size_t k = 0; k < len; ++k) tok += alphabet[rng() % alphabet.size()];
    if (tok == "-") continue;  // rejected as before: not a number
    std::optional<Value> got = try_parse(tok);
    ASSERT_TRUE(got.has_value()) << tok;
    ASSERT_TRUE(same_number(*got, oracle::parse_number(tok))) << tok;
  }
}

}  // namespace
}  // namespace vdap::json
