// The flat-JSON reader (service/protocol.h): one reader for the wire
// protocol and the ledger's snapshot and journal.
//
// Contracts under test:
//   1. Strictness — every accept/reject decision of the map-based parser
//      the reader replaced, message for message.  The expected column was
//      recorded from that parser: grammar, escapes, number syntax, and
//      every bound ParseRequestLine enforces.
//   2. Numbers read as that parser read them (strtoll, strtod), bit for
//      bit, including the leading '+' from_chars alone would reject.
//   3. Duplicate keys are found in linear time, however many keys.
//   4. Ledger lines written by AppendAccountLine keep the historical
//      %.17g spelling and reload bit-identically.

#include <gtest/gtest.h>

#include <array>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "service/budget_ledger.h"
#include "service/ledger_store.h"
#include "service/protocol.h"

namespace geopriv {
namespace {

namespace fs = std::filesystem;

struct Case {
  std::string line;
  std::string error;  ///< the expected message; empty when accepted
};

std::string S(const char* bytes, size_t size) {
  return std::string(bytes, size);
}

std::string Outcome(const Status& status) {
  return status.ok() ? "" : status.message();
}

TEST(FlatJsonReaderTest, GrammarDecisionsMatchTheReplacedParser) {
  const std::vector<Case> cases = {
      {R"({})", ""},
      {" \011{ } \015\012", ""},
      {R"({"a":1})", ""},
      {R"({"a":"x","b":true,"c":false})", ""},
      {R"({ "a" : 1 , "b" : 2 })", ""},
      {"{\"a\":1}\013\014", ""},
      {R"({"a":{"b":1}})",
       "nested objects/arrays are not part of the protocol"},
      {R"({"a":[1]})", R"(nested objects/arrays are not part of the protocol)"},
      {R"([1])", R"(expected a JSON object ('{...}'))"},
      {R"({"a":null})", R"(null values are not accepted)"},
      {R"({"a":nul})", R"(null values are not accepted)"},
      {R"({"a":n})", R"(null values are not accepted)"},
      {R"({"a":1,"a":2})", R"(duplicate key 'a')"},
      {R"({"a":1,"b":2,"a":"x"})", R"(duplicate key 'a')"},
      {R"({"a":1,"\u0061":2})", R"(duplicate key 'a')"},
      {R"({"\u0061":1})", ""},
      {R"({"a\"b":1,"a\"b":2})", R"(duplicate key 'a"b')"},
      {R"({"a":1,"A":2})", ""},
      {R"({"a":1} x)", R"(trailing content after object)"},
      {R"({"a":1}})", R"(trailing content after object)"},
      {R"({"a":1},)", R"(trailing content after object)"},
      {S("{\"a\":1}\000", 8), "trailing content after object"},
      {R"({"a":1}{})", R"(trailing content after object)"},
      {R"({"a":+5})", ""},
      {R"({"a":.5})", ""},
      {R"({"a":5.})", ""},
      {R"({"a":-.5})", ""},
      {R"({"a":1.e5})", ""},
      {R"({"a":007})", ""},
      {R"({"a":1e5})", ""},
      {R"({"a":1E+5})", ""},
      {R"({"a":1e-05})", ""},
      {R"({"a":1e})", R"(malformed number)"},
      {R"({"a":e5})", R"(malformed number)"},
      {R"({"a":-})", R"(malformed number)"},
      {R"({"a":+})", R"(malformed number)"},
      {R"({"a":.})", R"(malformed number)"},
      {R"({"a":1.2.3})", R"(expected ',' or '}' in object)"},
      {R"({"a":1e5e5})", R"(expected ',' or '}' in object)"},
      {R"({"a":--5})", R"(malformed number)"},
      {R"({"a":+-5})", R"(malformed number)"},
      {R"({"a":0x10})", R"(expected ',' or '}' in object)"},
      {R"({"a":Infinity})", R"(malformed number)"},
      {R"({"a":NaN})", R"(malformed number)"},
      {R"({"a":1 2})", R"(expected ',' or '}' in object)"},
      {R"({"a":})", R"(malformed number)"},
      {R"({"a":tru})", R"(malformed number)"},
      {R"({"a":truex})", R"(expected ',' or '}' in object)"},
      {R"({"a":falsey})", R"(expected ',' or '}' in object)"},
      {R"({"a":True})", R"(malformed number)"},
      {R"({"a":"\q"})", R"(unsupported string escape '\q')"},
      {R"({"a":"\u12"})", R"(malformed \u escape)"},
      {R"({"a":"\u12)", R"(truncated \u escape)"},
      {R"({"a":"\u"})", R"(truncated \u escape)"},
      {R"({"a":"\uzzzz"})", R"(malformed \u escape)"},
      {R"({"a":"\ud800"})", R"(surrogate \u escapes are not supported)"},
      {R"({"a":"\uDFFF"})", R"(surrogate \u escapes are not supported)"},
      {R"({"a":"\uD7FF"})", ""},
      {R"({"a":"\uE000"})", ""},
      {R"({"a":"\u0000"})", ""},
      {R"({"a":"abc)", R"(unterminated string)"},
      {R"({"a":"abc\)", R"(unterminated string)"},
      {R"({"a":"\/\b\f\n\r\t\"\\"})", ""},
      {"{\"a\":\"x\001\037y\"}", ""},
      {"{\"a\":\"\303\251\"}", ""},
      {R"({"a\q":1})", R"(unsupported string escape '\q')"},
      {R"()", R"(expected a JSON object ('{...}'))"},
      {R"(   )", R"(expected a JSON object ('{...}'))"},
      {R"({)", R"(expected a quoted key)"},
      {R"({a:1})", R"(expected a quoted key)"},
      {R"({"a"1})", R"(expected ':' after key 'a')"},
      {R"({"a":1,})", R"(expected a quoted key)"},
      {R"({,})", R"(expected a quoted key)"},
      {R"({"a":1 "b":2})", R"(expected ',' or '}' in object)"},
      {R"({"a":1;"b":2})", R"(expected ',' or '}' in object)"},
      {R"(not json)", R"(expected a JSON object ('{...}'))"},
      {R"("a")", R"(expected a JSON object ('{...}'))"},
      {R"({'a':1})", R"(expected a quoted key)"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Outcome(ReadFlatJson(c.line, nullptr, nullptr, 0)), c.error)
        << c.line;
  }
}

TEST(FlatJsonReaderTest, RequestDecisionsMatchTheReplacedParser) {
  const std::string Q = R"({"op":"query","consumer":"a","alpha":"1/2")";
  const std::string G = Q + R"(,"mode":"geometric")";
  const std::vector<Case> cases = {
      {R"({"op":"ping"})", ""},
      {R"({"op":"stats"})", ""},
      {R"({"op":"metrics"})", ""},
      {R"({"op":"shutdown"})", ""},
      {R"({"op":"batch_begin"})", ""},
      {R"({"op":"batch_end"})", ""},
      {R"({"o\u0070":"ping"})", ""},
      {R"({"op":"\u0070ing"})", ""},
      {R"({})", R"(missing field 'op')"},
      {R"({"op":17})", R"(field 'op' must be a string)"},
      {R"({"op":true})", R"(field 'op' must be a string)"},
      {R"({"op":"warp"})", R"(unknown op 'warp')"},
      {R"({"op":"budget"})", R"(missing field 'consumer')"},
      {R"({"op":"budget","consumer":7})", "field 'consumer' must be a string"},
      {R"({"op":"budget","consumer":"a\u0001"})", ""},
      {R"({"op":"query"})", R"(missing field 'consumer')"},
      {Q + R"(,"n":4,"count":1})", ""},
      {Q + R"(,"n":-1,"count":0})",
       "field 'n' must lie in [0, 32] for mode exact"},
      {Q + R"(,"n":0,"count":0})", ""},
      {Q + R"(,"n":32,"count":1})", ""},
      {Q + R"(,"n":33,"count":1})",
       "field 'n' must lie in [0, 32] for mode exact"},
      {G + R"(,"n":1024,"count":1})", ""},
      {G + R"(,"n":1025,"count":1})",
       "field 'n' must lie in [0, 1024] for mode geometric"},
      {Q + R"(,"n":4,"count":-1})", R"(field 'count' must lie in [0, n])"},
      {Q + R"(,"n":4,"count":0})", ""},
      {Q + R"(,"n":4,"count":4})", ""},
      {Q + R"(,"n":4,"count":5})", R"(field 'count' must lie in [0, n])"},
      {Q + R"(,"n":4})", R"(missing field 'count')"},
      {Q + R"(,"count":1})", R"(missing field 'n')"},
      {Q + R"(,"n":4.0,"count":1})", R"(field 'n' must be an integer)"},
      {Q + R"(,"n":4e0,"count":1})", R"(field 'n' must be an integer)"},
      {Q + R"(,"n":4,"count":1.5})", R"(field 'count' must be an integer)"},
      {Q + R"(,"n":+4,"count":1})", ""},
      {Q + R"(,"n":"4","count":1})", R"(field 'n' must be an integer)"},
      {Q + R"(,"n":true,"count":1})", R"(field 'n' must be an integer)"},
      {Q + R"(,"n":4294967301,"count":1})",
       "field 'n' must lie in [0, 32] for mode exact"},
      {Q + R"(,"n":9223372036854775808,"count":1})",
       "field 'n' is out of integer range"},
      {Q + R"(,"n":-9223372036854775808,"count":1})",
       "field 'n' must lie in [0, 32] for mode exact"},
      {Q + R"(,"n":4,"count":1,"lo":-1})",
       "fields 'lo'/'hi' must lie in [0, n]"},
      {Q + R"(,"n":4,"count":1,"lo":0,"hi":4})", ""},
      {Q + R"(,"n":4,"count":1,"lo":5})",
       "fields 'lo'/'hi' must lie in [0, n]"},
      {Q + R"(,"n":4,"count":1,"hi":-1})",
       "fields 'lo'/'hi' must lie in [0, n]"},
      {Q + R"(,"n":4,"count":1,"hi":5})",
       "fields 'lo'/'hi' must lie in [0, n]"},
      {Q + R"(,"n":4,"count":1,"lo":3,"hi":1})",
       "side interval must satisfy 0 <= lo <= hi <= n"},
      {Q + R"(,"n":4,"count":1,"hi":3.7})", R"(field 'hi' must be an integer)"},
      {Q + R"(,"n":4,"count":1,"lo":"0"})", R"(field 'lo' must be an integer)"},
      {Q + R"(,"n":4,"count":1,"seed":"7"})",
       "field 'seed' must be an integer"},
      {Q + R"(,"n":4,"count":1,"seed":-7})", ""},
      {Q + R"(,"n":4,"count":1,"seed":9223372036854775807})", ""},
      {Q + R"(,"n":4,"count":1,"seed":-9223372036854775809})",
       "field 'seed' is out of integer range"},
      {Q + R"(,"n":4,"count":1,"seed":1e3})",
       "field 'seed' must be an integer"},
      {Q + R"(,"n":4,"count":1,"samples":0})",
       "field 'samples' must lie in [1, 4096]"},
      {Q + R"(,"n":4,"count":1,"samples":1})", ""},
      {Q + R"(,"n":4,"count":1,"samples":4096})", ""},
      {Q + R"(,"n":4,"count":1,"samples":4097})",
       "field 'samples' must lie in [1, 4096]"},
      {Q + R"(,"n":4,"count":1,"samples":2.5})",
       "field 'samples' must be an integer"},
      {Q + R"(,"n":4,"count":1,"deadline_ms":-1})",
       "field 'deadline_ms' must lie in [0, 600000]"},
      {Q + R"(,"n":4,"count":1,"deadline_ms":0})", ""},
      {Q + R"(,"n":4,"count":1,"deadline_ms":600000})", ""},
      {Q + R"(,"n":4,"count":1,"deadline_ms":600001})",
       "field 'deadline_ms' must lie in [0, 600000]"},
      {Q + R"(,"n":4,"count":1,"trace":true})", ""},
      {Q + R"(,"n":4,"count":1,"trace":1})", "field 'trace' must be a boolean"},
      {Q + R"(,"n":4,"count":1,"chained":true})",
       "'chained' accounting is not available for independent query "
       "sampling (it would discount releases that do not form an "
       "Algorithm-1 chain)"},
      {Q + R"(,"n":4,"count":1,"chained":false})", ""},
      {Q + R"(,"n":4,"count":1,"chained":"true"})",
       "field 'chained' must be a boolean"},
      {Q + R"(,"n":4,"count":1,"mode":7})", R"(field 'mode' must be a string)"},
      {Q + R"(,"n":4,"count":1,"mode":"bogus"})",
       "unknown mode 'bogus' (exact|geometric)"},
      {Q + R"(,"n":4,"count":1,"loss":7})", R"(field 'loss' must be a string)"},
      {Q + R"(,"n":4,"count":1,"loss":"bogus"})",
       "unknown loss 'bogus' (absolute|squared|zero-one)"},
      {Q + R"(,"n":4,"count":1,"loss":"zeroone"})", ""},
      {R"({"op":"query","consumer":"a","n":4,"count":1})",
       "missing field 'alpha'"},
      {R"({"op":"query","consumer":"a","n":4,"count":1,"alpha":0.3})", ""},
      {R"({"op":"query","consumer":"a","n":4,"count":1,"alpha":"5/4"})",
       "alpha must lie in [0, 1]"},
      {R"({"op":"query","consumer":"a","n":4,"count":1,"alpha":true})",
       "field 'alpha': invalid digit in integer literal"},
      {R"({"op":"query","consumer":"a","n":4,"count":1,"alpha":"\u0031/3"})",
       ""},
      {R"({"op":"query","consumer":"a","n":4,"count":1,"alpha":+0.5})", ""},
      {R"({"op":"query","n":4,"count":1,"alpha":0.5})",
       "missing field 'consumer'"},
      {R"({"op":"query","consumer":5,"n":4,"count":1,"alpha":0.5})",
       "field 'consumer' must be a string"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Outcome(ParseRequestLine(c.line).status()), c.error) << c.line;
  }
}

TEST(FlatJsonReaderTest, NumbersReadAsStrtollAndStrtodRead) {
  static constexpr std::array<std::string_view, 1> kNames = {"v"};
  // The slots view their lines, which must outlive them; a deque never
  // moves its elements.
  std::deque<std::string> lines;
  const auto read = [&lines](const std::string& token) {
    lines.push_back("{\"v\":" + token + "}");
    std::array<JsonSlot, 1> fields;
    EXPECT_TRUE(ReadFlatJson(lines.back(), kNames, &fields).ok()) << token;
    return fields[0];
  };
  for (const char* token :
       {"0", "-0", "+0", "+5", "007", "-42", "9223372036854775807",
        "-9223372036854775808"}) {
    auto value = JsonInt("v", read(token));
    ASSERT_TRUE(value.ok()) << token;
    EXPECT_EQ(*value, std::strtoll(token, nullptr, 10)) << token;
  }
  for (const char* token : {"9223372036854775808", "-9223372036854775809",
                            "+99999999999999999999"}) {
    EXPECT_EQ(JsonInt("v", read(token)).status().message(),
              "field 'v' is out of integer range")
        << token;
  }
  // The ledger's levels: exponents, the grammar's '+', ".5" and "5.",
  // subnormals, and overflow / underflow, which strtod rounds to inf and
  // to the nearest subnormal or zero where from_chars alone reports an
  // error.
  for (const char* token :
       {"0", "-0", "1", "0.5", "+0.5", ".5", "5.", "-.5", "1.e5", "1E+5",
        "1e-05", "0.1", "0.99999999999999989", "2.2250738585072014e-308",
        "2.2250738585072009e-308", "4.9406564584124654e-324",
        "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-320",
        "1e-400", "-1e-400", "1e308", "1.7976931348623159e308", "1e999",
        "-1e999", "3.0000000000000004e-05"}) {
    auto value = JsonDouble("v", read(token));
    ASSERT_TRUE(value.ok()) << token;
    const double expected = std::strtod(token, nullptr);
    EXPECT_EQ(std::memcmp(&*value, &expected, sizeof(double)), 0)
        << token << " read as " << *value << ", strtod gives " << expected;
  }
}

TEST(FlatJsonReaderTest, DuplicateLastKeyAmongManyIsFoundInLinearTime) {
  // 200k distinct keys, then the first one again.  Comparing each key
  // with every earlier one would take ~2e10 comparisons (minutes); the
  // reader's hash set takes milliseconds.
  constexpr int kKeys = 200000;
  std::string line = "{";
  for (int i = 0; i < kKeys; ++i) {
    line += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  }
  const std::string distinct = line.substr(0, line.size() - 1) + "}";
  line += "\"k0\":true}";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(ReadFlatJson(distinct, nullptr, nullptr, 0).ok());
  EXPECT_EQ(Outcome(ReadFlatJson(line, nullptr, nullptr, 0)),
            "duplicate key 'k0'");
  // An escaped spelling of an early key is the same key.
  EXPECT_EQ(Outcome(ReadFlatJson(distinct.substr(0, distinct.size() - 1) +
                                     ",\"\\u006b7\":1}",
                                 nullptr, nullptr, 0)),
            "duplicate key 'k7'");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 5.0) << "duplicate detection is not linear";
}

// The doubles ReplyNumbersAreSpelledExactlyAsPrintf17g spells: zero,
// exact binary fractions, a non-dyadic decimal, the normal/subnormal
// boundary and its neighbours, and running products alpha^k down into
// the subnormals (what composed levels actually are).
std::vector<double> Printf17gEdgeValues() {
  std::vector<double> values = {
      0.0,
      1.0,
      0.5,
      0.1,
      1e-300,
      DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),
      std::nextafter(DBL_MIN, 1.0),
      std::nextafter(1.0, 0.0),
      std::nextafter(0.5, 1.0),
      std::nextafter(0.1, 0.0),
      std::nextafter(0.1, 1.0),
  };
  for (double alpha : {0.5, 0.9, 1.0 / 3.0, 0.999}) {
    double product = 1.0;
    for (int k = 0; k < 1100 && product > 0.0; k += 7) {
      values.push_back(product);
      for (int step = 0; step < 7; ++step) product *= alpha;
    }
  }
  return values;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(FlatJsonReaderTest, LedgerLinesKeepTheirSpellingAndReloadBitIdentically) {
  const std::string dir = ::testing::TempDir() + "/geopriv_ledger_roundtrip";
  fs::remove_all(dir);
  const std::vector<double> values = Printf17gEdgeValues();
  // Consumers whose names need every escape, plus one line longer than
  // the loader's 64 KiB read chunk.
  std::vector<std::string> consumers;
  BudgetLedger::Accounts accounts;
  for (size_t i = 0; i < values.size(); ++i) {
    consumers.push_back("c" + std::to_string(1000 + i) + "\"q\\\x01\xc3\xa9");
    accounts[consumers.back()] = {values[i], i,
                                  values[(i + 1) % values.size()], i % 3};
  }
  consumers.push_back(std::string(200000, 'z'));
  accounts[consumers.back()] = {0.25, 2, 1.0, 0};
  BudgetLedger ledger;
  ASSERT_TRUE(ledger.Restore(accounts).ok());
  LedgerStore store(&ledger, dir);
  ASSERT_TRUE(store.Compact().ok());

  // The snapshot is spelled as the printf-era writer spelled it.
  std::string expected = "{\"ledger\":\"geopriv-ledger v1\"}\n";
  for (const BudgetLedger::AccountSnapshot& a : ledger.Snapshot()) {
    char buf[160];
    expected += "{\"consumer\":\"" + JsonEscape(a.consumer) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"level\":%.17g,\"releases\":%llu,\"chained_level\":%.17g"
                  ",\"chained_releases\":%llu}\n",
                  a.independent_level,
                  static_cast<unsigned long long>(a.independent_releases),
                  a.chained_level,
                  static_cast<unsigned long long>(a.chained_releases));
    expected += buf;
  }
  EXPECT_EQ(ReadFile(dir + "/" + LedgerStore::kSnapshotFile), expected);

  // One journal record too, so both files' lines go through the reader.
  ASSERT_TRUE(ledger.Charge(consumers.front(), 0.5).ok());
  auto ticket = store.Append({&consumers.front()});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(store.Sync(*ticket).ok());

  BudgetLedger reloaded;
  LedgerStore reload_store(&reloaded, dir);
  ASSERT_TRUE(reload_store.Load().ok());
  ASSERT_EQ(reloaded.size(), consumers.size());
  for (const std::string& consumer : consumers) {
    const BudgetLedger::AccountSnapshot want = ledger.Get(consumer);
    const BudgetLedger::AccountSnapshot got = reloaded.Get(consumer);
    EXPECT_TRUE(SameBits(got.independent_level, want.independent_level))
        << consumer.substr(0, 16);
    EXPECT_TRUE(SameBits(got.chained_level, want.chained_level))
        << consumer.substr(0, 16);
    EXPECT_EQ(got.independent_releases, want.independent_releases);
    EXPECT_EQ(got.chained_releases, want.chained_releases);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace geopriv
