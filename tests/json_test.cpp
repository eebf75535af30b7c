// JSON encoding/decoding regression tests: the shared escaper in
// util/json.hpp round-tripped through the strict parser in
// util/json_value.hpp
// (each side validates the other), plus the strictness guarantees of the
// parser itself and the non-finite double policy of the exporters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"

namespace lamps {
namespace {

std::string roundtrip(const std::string& original) {
  std::ostringstream ss;
  write_json_string(ss, original);
  return JsonValue::parse(ss.str()).as_string();
}

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(roundtrip("say \"hi\" to c:\\temp"), "say \"hi\" to c:\\temp");
}

TEST(JsonEscape, ControlCharactersUseShortFormsOrU00XX) {
  // Regression: the per-exporter escapers only handled `"` and `\`, so a
  // name carrying a tab or newline produced unparseable JSON documents.
  EXPECT_EQ(json_escape("a\tb\nc"), "a\\tb\\nc");
  EXPECT_EQ(json_escape("\b\f\r"), "\\b\\f\\r");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  std::string all_controls;
  for (int c = 0; c < 0x20; ++c) all_controls.push_back(static_cast<char>(c));
  EXPECT_EQ(roundtrip(all_controls), all_controls);
}

TEST(JsonEscape, Utf8PassesThroughVerbatim) {
  const std::string s = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x9a\x80";  // café € 🚀
  EXPECT_EQ(json_escape(s), s);
  EXPECT_EQ(roundtrip(s), s);
}

TEST(JsonDouble, FiniteValuesKeepFullPrecisionNonFiniteAreNull) {
  EXPECT_EQ(json_double(3.5), "3.5");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
  const double v = 0.1234567890123456789;
  EXPECT_DOUBLE_EQ(JsonValue::parse(json_double(v)).as_number(), v);
}

TEST(JsonParser, ParsesScalarsArraysAndObjects) {
  const JsonValue doc = JsonValue::parse(
      R"({"s":"x","n":-1.5e2,"b":true,"z":null,"a":[1,2,3],"o":{"k":"v"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("s")->as_string(), "x");
  EXPECT_DOUBLE_EQ(doc.get("n")->as_number(), -150.0);
  EXPECT_TRUE(doc.get("b")->as_bool());
  EXPECT_TRUE(doc.get("z")->is_null());
  ASSERT_EQ(doc.get("a")->items().size(), 3U);
  EXPECT_DOUBLE_EQ(doc.get("a")->items()[2].as_number(), 3.0);
  EXPECT_EQ(doc.get("o")->get("k")->as_string(), "v");
  EXPECT_EQ(doc.get("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc.get_number("n", 0.0), -150.0);
  EXPECT_DOUBLE_EQ(doc.get_number("missing", 7.0), 7.0);
}

TEST(JsonParser, DecodesEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(JsonValue::parse(R"("\u0041\n\t\"\\")").as_string(), "A\n\t\"\\");
  // U+1F680 (rocket) as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude80")").as_string(),
            "\xf0\x9f\x9a\x80");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                 // empty
      "{",                // unterminated object
      "[1,]",             // trailing comma
      "{\"a\":1} x",      // trailing garbage
      "\"abc",            // unterminated string
      "\"a\nb\"",         // bare control character inside a string
      "01",               // leading zero
      "+1",               // leading plus
      "nul",              // truncated keyword
      R"("\ud83d")",      // unpaired high surrogate
      R"("\x41")",        // invalid escape
      "{\"a\" 1}",        // missing colon
  };
  for (const char* doc : bad) {
    EXPECT_THROW((void)JsonValue::parse(doc), InputError) << doc;
  }
}

// A line of nothing but '[' used to recurse once per byte and overflow
// the serving loop's stack.  Depth kMaxDepth still parses; one more level
// is a typed parse error, however long the run of brackets.
TEST(JsonParser, NestingIsCappedAtMaxDepth) {
  const std::size_t max = JsonValue::kMaxDepth;
  const std::string ok = std::string(max, '[') + std::string(max, ']');
  EXPECT_TRUE(JsonValue::parse(ok).is_array());
  std::string objects;
  for (std::size_t i = 0; i < max; ++i) objects += "{\"a\":";
  objects += "1" + std::string(max, '}');
  EXPECT_TRUE(JsonValue::parse(objects).is_object());

  for (const std::string& deep :
       {std::string(max + 1, '[') + std::string(max + 1, ']'), "{\"a\":" + ok + "}",
        std::string(2 << 20, '[')}) {
    try {
      (void)JsonValue::parse(deep);
      ADD_FAILURE() << "accepted nesting deeper than kMaxDepth";
    } catch (const InputError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kJsonParse);
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos);
    }
  }
}

TEST(JsonParser, TypeMismatchesThrow) {
  const JsonValue doc = JsonValue::parse(R"({"n":1,"s":"x"})");
  EXPECT_THROW((void)doc.get("n")->as_string(), InputError);
  EXPECT_THROW((void)doc.get("s")->as_number(), InputError);
  EXPECT_THROW((void)doc.get_number("s", 0.0), InputError);  // present but wrong type
}

// Cycle counts and total work exceed the 2^53 a double holds exactly, so
// bare-digit tokens also keep their exact value; anything else is refused.
TEST(JsonParser, U64IsExactForBareDigitTokensOnly) {
  EXPECT_EQ(JsonValue::parse("0").as_u64(), 0U);
  EXPECT_EQ(JsonValue::parse("9007199254740993").as_u64(), 9007199254740993ULL);
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* doc : {"18446744073709551616", "-1", "-0", "1.0", "1e3", "\"1\"", "null"}) {
    EXPECT_THROW((void)JsonValue::parse(doc).as_u64(), InputError) << doc;
  }
  EXPECT_DOUBLE_EQ(JsonValue::parse("18446744073709551616").as_number(), 0x1p64);
}

TEST(JsonParser, MembersKeepDocumentOrder) {
  const JsonValue doc = JsonValue::parse(R"({"b":1,"a":"x","b":2})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3U);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(members[1].second.as_string(), "x");
  EXPECT_EQ(members[2].second.as_u64(), 2U);
  EXPECT_THROW((void)JsonValue::parse("[1]").members(), InputError);
}

TEST(JsonExporters, MetricsWithHostileNamesParseStrictly) {
  // End-to-end escaping regression: a metric name with a tab, quote and
  // newline must survive the registry's JSON export and strict parsing.
  const std::string evil = "evil\t\"name\"\nwith\x01controls";
  obs::Registry r;
  r.counter(evil).inc(3);
  obs::Histogram& h = r.histogram("lat\tency", {1.0});
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(0.5);
  std::ostringstream ss;
  r.write_json(ss);
  const JsonValue doc = JsonValue::parse(ss.str());
  ASSERT_NE(doc.get("counters"), nullptr);
  ASSERT_NE(doc.get("counters")->get(evil), nullptr);
  EXPECT_DOUBLE_EQ(doc.get("counters")->get(evil)->as_number(), 3.0);
  const JsonValue* hist = doc.get("histograms")->get("lat\tency");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->get("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->get("sum")->as_number(), 0.5);  // NaN excluded
}

}  // namespace
}  // namespace lamps
