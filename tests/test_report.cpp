// Unit tests for the hardened sim/format layer: JSON string/number
// emission that always parses under a strict reader, CSV quoting, the
// sim/json parser fuzzed against that reader, and Summary percentile
// interpolation edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "sim/format.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "strict_json.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using mkos::testutil::StrictJson;

// --------------------------------------------------------------- json_quote

TEST(JsonQuote, PlainAsciiPassesThrough) {
  EXPECT_EQ(sim::json_quote("hello world"), "\"hello world\"");
}

TEST(JsonQuote, EscapesQuoteAndBackslash) {
  EXPECT_EQ(sim::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(JsonQuote, EscapesControlCharacters) {
  EXPECT_EQ(sim::json_quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  // Control chars without a shorthand use \u00XX.
  EXPECT_EQ(sim::json_quote(std::string{'\x01'}), "\"\\u0001\"");
  EXPECT_EQ(sim::json_quote(std::string{'\x1f'}), "\"\\u001f\"");
}

TEST(JsonQuote, RoundTripsThroughStrictParser) {
  const std::string nasty = "line1\nline2\t\"quoted\\path\"\x01\x7f end";
  const std::string quoted = sim::json_quote(nasty);
  std::string decoded;
  ASSERT_TRUE(StrictJson::decode_string(quoted, &decoded));
  EXPECT_EQ(decoded, nasty);
}

// -------------------------------------------------------------- json_number

TEST(JsonNumber, NonFiniteSerializesAsNull) {
  EXPECT_EQ(sim::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(sim::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(sim::json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, FiniteValuesRoundTrip) {
  for (const double v : {0.0, -1.5, 3.14159265358979, 1e-300, 6.02e23, 1234567.0}) {
    const std::string s = sim::json_number(v);
    EXPECT_TRUE(StrictJson{s}.valid()) << s;
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

// --------------------------------------------------------------- JsonObject

TEST(JsonObject, EmitsStrictlyValidJson) {
  sim::JsonObject obj;
  obj.text("name", "bench \"x\"\nwith newline")
      .number("nan_gauge", std::numeric_limits<double>::quiet_NaN())
      .number("value", 2.5)
      .integer("count", -7)
      .boolean("flag", true)
      .raw("nested", "{\"a\": [1, 2, 3]}");
  const std::string doc = obj.to_string();
  EXPECT_TRUE(StrictJson{doc}.valid()) << doc;
  EXPECT_NE(doc.find("\"nan_gauge\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"flag\": true"), std::string::npos);
}

// ------------------------------------------------------------ Table::to_csv

TEST(TableCsv, QuotesCellsWithCommasQuotesAndNewlines) {
  sim::Table t{{"app", "note"}};
  t.add_row({"plain", "a,b"});
  t.add_row({"said \"hi\"", "two\nlines"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("app,note"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"a,b\""), std::string::npos);
  // RFC 4180: embedded quotes double, the cell itself is quoted.
  EXPECT_NE(csv.find("\"said \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"two\nlines\""), std::string::npos);
}

TEST(TableCsv, PlainCellsStayUnquoted) {
  sim::Table t{{"k", "v"}};
  t.add_row({"x", "1.5"});
  EXPECT_EQ(t.to_csv(), "k,v\nx,1.5\n");
}

// ------------------------------------------------- sim::json_parse, fuzzed
//
// sim::json_parse reads cell-store entries back from disk. Seeded mutations
// of two valid documents must be accepted by it exactly when the
// independent strict reader accepts them.

/// Every escape, number form and empty container of the grammar.
constexpr std::string_view kGrammarDoc =
    R"({"esc": "\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u20AC ", "empty": "",)"
    R"( "nums": [0, -0, 7, -12, 3.25, -0.5, 1e3, 2E-4, 6.02e+23, -1.5E+2, 0.0e0],)"
    R"( "obj": {}, "arr": [], "lits": [true, false, null],)"
    R"( "nest": {"a": [[{}], [[]], {"b": {"c": []}}]}})";

/// The one input class where the readers differ by design: json_quote never
/// emits surrogate escapes, and the production reader refuses them.
bool surrogate_error(const std::string& error) {
  return error.find("surrogate") != std::string::npos;
}

TEST(JsonParseFuzz, SurrogateEscapesAreTheOneKnownDivergence) {
  const std::string pair = R"("\ud83d\ude00")";
  EXPECT_TRUE(StrictJson{pair}.valid());
  std::string error;
  EXPECT_FALSE(sim::json_parse(pair, &error).has_value());
  EXPECT_TRUE(surrogate_error(error)) << error;
}

TEST(JsonParseFuzz, NestingDeeperThanTheLimitIsRejectedCleanly) {
  constexpr std::size_t kLevels = 100000;  // far past kMaxDepth (64)
  const std::string deep = std::string(kLevels, '[') + std::string(kLevels, ']');
  std::string error;
  EXPECT_FALSE(sim::json_parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos) << error;
}

TEST(JsonParseFuzz, MutationsAgreeWithTheStrictReader) {
  const auto app = workloads::make_app("MiniFE");
  const core::RunStats cell = core::run_app(*app, core::SystemConfig::mckernel(), 1, 1, 7);
  const std::string seeds[] = {cell.ledger.to_json(), std::string(kGrammarDoc)};
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(StrictJson{seed}.valid()) << seed;
    ASSERT_TRUE(sim::json_parse(seed).has_value()) << seed;
  }

  constexpr std::string_view kAlphabet = "{}[]:,\"\\/ \t\n\r0123456789+-.eEtrufalsn";
  sim::Rng rng(0x150DA7A5ULL);
  const auto pick = [&rng](std::string_view from) {
    return from[rng.uniform_index(from.size())];
  };
  // One to three edits: bit flips, byte deletions, insertions from
  // kAlphabet, truncations and duplicated spans.
  const auto mutate = [&](std::string doc) {
    const std::uint64_t edits = 1 + rng.uniform_index(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      if (doc.empty()) {
        doc.push_back(pick(kAlphabet));
        continue;
      }
      const std::size_t at = rng.uniform_index(doc.size());
      switch (rng.uniform_index(5)) {
        case 0:
          doc[at] = static_cast<char>(doc[at] ^ (1 << rng.uniform_index(8)));
          break;
        case 1: doc.erase(at, 1); break;
        case 2: doc.insert(at, 1, pick(kAlphabet)); break;
        case 3: doc.resize(at); break;
        default: {
          const std::size_t len =
              1 + rng.uniform_index(std::min<std::size_t>(32, doc.size() - at));
          doc.insert(at + len, doc.substr(at, len));
          break;
        }
      }
    }
    return doc;
  };

  constexpr int kCases = 20000;
  int accepted = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::string doc = mutate(seeds[c % 2]);
    std::string error;
    const bool production = sim::json_parse(doc, &error).has_value();
    const bool oracle = StrictJson{doc}.valid();
    if (oracle && !production && surrogate_error(error)) continue;
    ASSERT_EQ(production, oracle) << "case " << c << ": " << error << "\n" << doc;
    accepted += production ? 1 : 0;
  }
  // Both verdicts occur, so the sweep reached past the first mutated byte.
  EXPECT_GT(accepted, kCases / 20);
  EXPECT_LT(accepted, kCases - kCases / 20);
}

// ------------------------------------------------- Summary::percentile edges

TEST(SummaryPercentile, EndpointsHitMinAndMax) {
  sim::Summary s;
  s.add(5.0);
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 5.0);
}

TEST(SummaryPercentile, TwoSamplesInterpolateLinearly) {
  sim::Summary s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 15.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 12.5);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 20.0);
}

TEST(SummaryPercentile, SingleSampleIsEveryPercentile) {
  sim::Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 42.0);
}

}  // namespace
