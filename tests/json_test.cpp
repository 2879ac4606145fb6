// Tests for the dependency-free JSON layer (common/json.hpp): every value
// type, a malformed-input corpus (truncation, bad escapes, depth bombs,
// duplicate keys), parse-error line/column accuracy, and a seeded fuzz loop
// pinning parse(dump(v)) == v across 2000 random documents.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace switchml::json {
namespace {

TEST(JsonParse, EveryValueType) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5E-2").as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  const Value arr = parse("[1, \"two\", null, [true]]");
  ASSERT_EQ(arr.as_array().size(), 4u);
  EXPECT_EQ(arr.as_array()[1].as_string(), "two");
  EXPECT_TRUE(arr.as_array()[3].as_array()[0].as_bool());
  const Value obj = parse("{\"a\": 1, \"b\": {\"c\": []}}");
  ASSERT_NE(obj.find("b"), nullptr);
  EXPECT_TRUE(obj.find("b")->find("c")->as_array().empty());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonParse, IntVsDoubleKind) {
  EXPECT_EQ(parse("7").kind(), Kind::Int);
  EXPECT_EQ(parse("7.0").kind(), Kind::Double);
  EXPECT_EQ(parse("7e0").kind(), Kind::Double);
  // Past int64 range, numbers degrade to double instead of failing.
  EXPECT_EQ(parse("9223372036854775807").as_int(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse("-9223372036854775808").as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse("9223372036854775808").kind(), Kind::Double);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("\"\\\/\b\f\n\r\t")").as_string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(parse(R"("\u0041\u00e9")").as_string(), "A\xC3\xA9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, InsertionOrderPreserved) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

// --- malformed-input corpus --------------------------------------------------

TEST(JsonParse, MalformedCorpus) {
  const char* bad[] = {
      "",                    // empty
      "   ",                 // whitespace only
      "{",                   // truncated object
      "[1, 2",               // truncated array
      "\"unterminated",      // truncated string
      "{\"a\": }",           // missing value
      "{\"a\" 1}",           // missing colon
      "{a: 1}",              // unquoted key
      "[1, 2,]",             // trailing comma
      "[1 2]",               // missing comma
      "nul",                 // truncated literal
      "truex",               // literal with trailing junk
      "01",                  // leading zero
      "-",                   // bare sign
      "1.",                  // missing fraction digits
      "1e",                  // missing exponent digits
      ".5",                  // missing integer part
      "+1",                  // leading plus
      "NaN",                 // not JSON
      "Infinity",            // not JSON
      "'single'",            // wrong quotes
      "\"bad \\x escape\"",  // unknown escape
      "\"\\u12\"",           // short unicode escape
      "\"\\ud83d\"",         // unpaired high surrogate
      "\"\\ude00\"",         // unpaired low surrogate
      "\"ctrl \x01\"",       // raw control char in string
      "1 2",                 // two top-level values
      "[] []",               // trailing garbage
      "{\"a\": 1} x",        // trailing garbage after object
      "// comment\n1",       // comments are not JSON
  };
  for (const char* text : bad)
    EXPECT_THROW((void)parse(text), ParseError) << "accepted: " << text;
}

TEST(JsonParse, DuplicateKeysRejected) {
  try {
    (void)parse(R"({"a": 1, "b": 2, "a": 3})");
    FAIL() << "duplicate key accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, DepthBombRejected) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_THROW((void)parse(deep), ParseError);
  // Exactly at the cap parses; one past fails.
  std::string at_cap, past_cap;
  for (int i = 0; i < 64; ++i) at_cap += "[";
  for (int i = 0; i < 64; ++i) at_cap += "]";
  EXPECT_NO_THROW((void)parse(at_cap));
  past_cap = "[" + at_cap + "]";
  EXPECT_THROW((void)parse(past_cap), ParseError);
  // The cap is configurable.
  EXPECT_NO_THROW((void)parse(past_cap, 65));
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    (void)parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
    FAIL() << "parsed";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 3);
    EXPECT_EQ(e.column, 8);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, MissingFileNamesPath) {
  try {
    (void)parse_file("/nonexistent/definitely_missing.json");
    FAIL() << "opened";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("definitely_missing.json"), std::string::npos);
  }
}

// --- emitter -----------------------------------------------------------------

TEST(JsonDump, RoundTripPreservesKindAndValue) {
  const char* docs[] = {
      "null", "true", "[1,2.5,\"x\"]", R"({"a":{"b":[null,false]},"c":-0.125})",
  };
  for (const char* text : docs) {
    const Value v = parse(text);
    EXPECT_EQ(parse(v.dump()), v) << text;
    EXPECT_EQ(parse(v.dump(true)), v) << text; // pretty form parses too
  }
  // A whole double stays a double across the round trip (".0" suffix).
  const Value d = parse("7.0");
  EXPECT_EQ(parse(d.dump()).kind(), Kind::Double);
  // Shortest-form doubles are bit-exact.
  const Value pi = parse("3.141592653589793");
  EXPECT_EQ(parse(pi.dump()).as_double(), pi.as_double());
}

TEST(JsonDump, EscapesControlCharacters) {
  const Value v = std::string("a\"b\\c\nd\x01");
  const std::string s = v.dump();
  EXPECT_EQ(parse(s).as_string(), v.as_string());
  EXPECT_NE(s.find("\\u0001"), std::string::npos);
}

// Every artifact's keys and strings go through dump()'s escaper: every ASCII
// byte, alone and all in one string, round-trips (the strict parser rejects
// a raw control byte, so none is written unescaped).
TEST(JsonDump, StringRoundTripsEveryAsciiByte) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(parse(Value(one).dump()).as_string(), one) << "byte " << c;
    all += one;
  }
  EXPECT_EQ(parse(Value(all).dump()).as_string(), all);
}

TEST(JsonDump, NonFiniteDoublesThrow) {
  EXPECT_THROW((void)Value(std::numeric_limits<double>::quiet_NaN()).dump(), std::runtime_error);
  EXPECT_THROW((void)Value(std::numeric_limits<double>::infinity()).dump(), std::runtime_error);
}

// --- seeded fuzz round-trip --------------------------------------------------

class Rng {
public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    x_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
  std::uint64_t x_;
};

Value random_value(Rng& rng, int depth) {
  switch (depth > 6 ? rng.below(5) : rng.below(7)) {
  case 0: return Value();
  case 1: return Value(rng.below(2) == 0);
  case 2: return Value(static_cast<std::int64_t>(rng.next()));
  case 3: {
    // Doubles from a wide dynamic range, always finite.
    const double mant = static_cast<double>(static_cast<std::int64_t>(rng.next())) / 1e3;
    const int exp = static_cast<int>(rng.below(40)) - 20;
    return Value(mant * std::pow(10.0, exp));
  }
  case 4: {
    std::string s;
    const std::uint64_t len = rng.below(12);
    for (std::uint64_t i = 0; i < len; ++i) {
      const std::uint64_t c = rng.below(96);
      if (c < 90)
        s += static_cast<char>(' ' + c);
      else if (c < 93)
        s += static_cast<char>(rng.below(0x20)); // control chars
      else
        s += "\xC3\xA9"; // multi-byte UTF-8
    }
    return Value(std::move(s));
  }
  case 5: {
    Array a;
    const std::uint64_t n = rng.below(5);
    for (std::uint64_t i = 0; i < n; ++i) a.push_back(random_value(rng, depth + 1));
    return Value(std::move(a));
  }
  default: {
    Value o(Object{});
    const std::uint64_t n = rng.below(5);
    for (std::uint64_t i = 0; i < n; ++i)
      o.set("k" + std::to_string(i), random_value(rng, depth + 1));
    return o;
  }
  }
}

TEST(JsonFuzz, ParseDumpRoundTrip2000) {
  Rng rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    const Value v = random_value(rng, 0);
    std::string dumped;
    ASSERT_NO_THROW(dumped = v.dump(i % 2 == 0)) << "iter " << i;
    Value back;
    ASSERT_NO_THROW(back = parse(dumped)) << "iter " << i << ": " << dumped;
    EXPECT_EQ(back, v) << "iter " << i << ": " << dumped;
    // Emission is a fixed point: dump(parse(dump(v))) == dump(v).
    EXPECT_EQ(back.dump(), v.dump()) << "iter " << i;
  }
}

} // namespace
} // namespace switchml::json
