#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "bench_support/table.hpp"
#include "util/cli.hpp"
#include "util/flat_map.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace qbp {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int k = 0; k < 100; ++k) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int k = 0; k < 10000; ++k) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int k = 0; k < 1000; ++k) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowApproximatelyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int k = 0; k < kDraws; ++k) ++counts[rng.next_below(kBuckets)];
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    EXPECT_NEAR(counts[bucket], kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int k = 0; k < 5000; ++k) {
    const auto value = rng.next_int(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    saw_lo |= value == -2;
    saw_hi |= value == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int k = 0; k < 10000; ++k) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 20000;
  for (int k = 0; k < kDraws; ++k) {
    const double value = rng.next_gaussian();
    sum += value;
    sum_sq += value * value;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.05);
}

TEST(Rng, LogNormalIsPositive) {
  Rng rng(13);
  for (int k = 0; k < 1000; ++k) {
    EXPECT_GT(rng.next_log_normal(0.5, 1.0), 0.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  auto copy = values;
  rng.shuffle(std::span<int>(copy));
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.fork(1);
  Rng child2 = parent.fork(2);
  int equal = 0;
  for (int k = 0; k < 100; ++k) {
    if (child() == child2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, RandomPermutationIsPermutation) {
  Rng rng(31);
  const auto perm = random_permutation(20, rng);
  std::set<std::int32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 19);
}

// ------------------------------------------------------------ strings ----

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmptyFields) {
  const auto fields = split_whitespace("  one \t two\nthree  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "one");
  EXPECT_EQ(fields[1], "two");
  EXPECT_EQ(fields[2], "three");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, ParseIntAcceptsWholeTokenOnly) {
  long long value = 0;
  EXPECT_TRUE(parse_int("42", value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(parse_int(" -7 ", value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(parse_int("12x", value));
  EXPECT_FALSE(parse_int("", value));
  EXPECT_FALSE(parse_int("4.2", value));
}

TEST(Strings, ParseDouble) {
  double value = 0.0;
  EXPECT_TRUE(parse_double("3.25", value));
  EXPECT_DOUBLE_EQ(value, 3.25);
  EXPECT_TRUE(parse_double("-1e3", value));
  EXPECT_DOUBLE_EQ(value, -1000.0);
  EXPECT_FALSE(parse_double("abc", value));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(Strings, FormatGrouped) {
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(999), "999");
  EXPECT_EQ(format_grouped(1000), "1,000");
  EXPECT_EQ(format_grouped(20756), "20,756");
  EXPECT_EQ(format_grouped(-1234567), "-1,234,567");
}

// ---------------------------------------------------------------- cli ----

TEST(Cli, ParsesFlagsAndValues) {
  bool verbose = false;
  std::int64_t count = 10;
  double ratio = 0.5;
  std::string name = "default";
  CliParser cli("prog", "test");
  cli.add_flag("verbose", verbose, "v");
  cli.add_int("count", count, "c");
  cli.add_double("ratio", ratio, "r");
  cli.add_string("name", name, "n");

  const char* argv[] = {"prog", "--verbose", "--count", "42",
                        "--ratio=0.25", "--name", "x", "positional"};
  ASSERT_TRUE(cli.parse(8, argv));
  EXPECT_TRUE(verbose);
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(ratio, 0.25);
  EXPECT_EQ(name, "x");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("nope"), std::string::npos);
}

TEST(Cli, RejectsMalformedInt) {
  std::int64_t count = 0;
  CliParser cli("prog", "test");
  cli.add_int("count", count, "c");
  const char* argv[] = {"prog", "--count", "abc"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, MissingValueIsAnError) {
  std::int64_t count = 0;
  CliParser cli("prog", "test");
  cli.add_int("count", count, "c");
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpShortCircuits) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
  EXPECT_NE(cli.usage().find("prog"), std::string::npos);
}

TEST(Cli, FlagWithExplicitValue) {
  bool flag = true;
  CliParser cli("prog", "test");
  cli.add_flag("flag", flag, "f");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(flag);
}

// ------------------------------------------------------------ FlatMap ----

TEST(FlatMap, InsertsSortedAndFinds) {
  FlatMap<int, double> map;
  map[5] = 1.0;
  map[1] = 2.0;
  map[3] = 3.0;
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(3), nullptr);
  EXPECT_DOUBLE_EQ(*map.find(3), 3.0);
  EXPECT_EQ(map.find(2), nullptr);
  // Iteration order is key-sorted.
  std::vector<int> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5}));
}

TEST(FlatMap, ValueOrAndContains) {
  FlatMap<int, int> map;
  map[2] = 20;
  EXPECT_EQ(map.value_or(2, -1), 20);
  EXPECT_EQ(map.value_or(9, -1), -1);
  EXPECT_TRUE(map.contains(2));
  EXPECT_FALSE(map.contains(9));
}

TEST(FlatMap, EraseRemovesOnlyTarget) {
  FlatMap<int, int> map;
  map[1] = 1;
  map[2] = 2;
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.contains(2));
}

TEST(FlatMap, OperatorBracketUpdatesInPlace) {
  FlatMap<int, int> map;
  map[7] = 1;
  map[7] += 5;
  EXPECT_EQ(map.value_or(7, 0), 6);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, EmptyMapBehaves) {
  FlatMap<int, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_FALSE(map.erase(0));
  EXPECT_EQ(map.value_or(0, 42), 42);
}

TEST(FlatMap, OperatorBracketDefaultConstructsAbsentKey) {
  FlatMap<int, double> map;
  EXPECT_DOUBLE_EQ(map[4], 0.0);  // inserted as Value{}
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.contains(4));
}

TEST(FlatMap, EraseKeepsSortedIterationOrder) {
  FlatMap<int, int> map;
  for (const int key : {9, 2, 7, 4, 11, 0}) map[key] = key * 10;
  EXPECT_TRUE(map.erase(7));   // middle
  EXPECT_TRUE(map.erase(0));   // first
  EXPECT_TRUE(map.erase(11));  // last
  std::vector<int> keys;
  std::vector<int> values;
  for (const auto& [key, value] : map) {
    keys.push_back(key);
    values.push_back(value);
  }
  EXPECT_EQ(keys, (std::vector<int>{2, 4, 9}));
  EXPECT_EQ(values, (std::vector<int>{20, 40, 90}));
}

TEST(FlatMap, ReinsertAfterEraseStaysSorted) {
  FlatMap<int, int> map;
  map[1] = 10;
  map[3] = 30;
  map[5] = 50;
  EXPECT_TRUE(map.erase(3));
  map[3] = 31;
  std::vector<int> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(map.value_or(3, -1), 31);
}

TEST(FlatMap, MutableFindAndIterationWriteThrough) {
  FlatMap<int, int> map;
  map[2] = 1;
  map[8] = 2;
  int* value = map.find(8);
  ASSERT_NE(value, nullptr);
  *value = 99;
  EXPECT_EQ(map.value_or(8, 0), 99);
  for (auto& [key, entry_value] : map) entry_value += 1;
  EXPECT_EQ(map.value_or(2, 0), 2);
  EXPECT_EQ(map.value_or(8, 0), 100);
}

TEST(FlatMap, NegativeKeysSortBeforePositive) {
  FlatMap<int, int> map;
  map[3] = 1;
  map[-5] = 2;
  map[0] = 3;
  std::vector<int> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<int>{-5, 0, 3}));
}

TEST(FlatMap, EqualityComparesEntries) {
  FlatMap<int, int> a;
  FlatMap<int, int> b;
  EXPECT_TRUE(a == b);
  a[1] = 10;
  b[1] = 10;
  EXPECT_TRUE(a == b);
  b[1] = 11;
  EXPECT_FALSE(a == b);
  b[1] = 10;
  b[2] = 20;
  EXPECT_FALSE(a == b);  // same prefix, extra entry
}

TEST(FlatMap, ClearEmptiesAndAllowsReuse) {
  FlatMap<int, int> map;
  map.reserve(8);
  map[1] = 1;
  map[2] = 2;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(1));
  map[4] = 40;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.value_or(4, 0), 40);
}

// -------------------------------------------------------------- table ----

TEST(TextTable, RendersHeadersAndRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string output = table.render();
  EXPECT_NE(output.find("name"), std::string::npos);
  EXPECT_NE(output.find("alpha"), std::string::npos);
  EXPECT_NE(output.find("22"), std::string::npos);
  // Every line has the same width.
  std::size_t width = 0;
  std::size_t start = 0;
  while (start < output.size()) {
    const auto end = output.find('\n', start);
    const auto line = output.substr(start, end - start);
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
    start = end + 1;
  }
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NO_THROW({ const auto rendered = table.render(); (void)rendered; });
}

TEST(TextTable, AlignmentLeftAndRight) {
  TextTable table({"left", "right"});
  table.set_alignment({TextTable::Align::kLeft, TextTable::Align::kRight});
  table.add_row({"x", "1"});
  const std::string output = table.render();
  EXPECT_NE(output.find("| x    |"), std::string::npos);
  EXPECT_NE(output.find("|     1 |"), std::string::npos);
}

// -------------------------------------------------------------- timer ----

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.millis(), 15.0);
  EXPECT_LT(timer.seconds(), 5.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.reset();
  EXPECT_LT(timer.millis(), 15.0);
}

// --------------------------------------------------------------- json ----

TEST(Json, ParsesEveryValueKind) {
  json::Value value;
  const auto parsed = json::parse(
      R"({"b":true,"n":null,"i":42,"d":-2.5,"s":"hi\nthere","a":[1,2,3],)"
      R"("o":{"nested":"yes"}})",
      value);
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_TRUE(value.is_object());
  EXPECT_EQ(value.get_bool("b", false), true);
  EXPECT_TRUE(value.find("n")->is_null());
  EXPECT_DOUBLE_EQ(value.get_number("i", 0), 42.0);
  EXPECT_DOUBLE_EQ(value.get_number("d", 0), -2.5);
  EXPECT_EQ(value.get_string("s", ""), "hi\nthere");
  ASSERT_TRUE(value.find("a")->is_array());
  EXPECT_EQ(value.find("a")->size(), 3u);
  EXPECT_DOUBLE_EQ(value.find("a")->at(1).as_number(), 2.0);
  EXPECT_EQ(value.find("o")->get_string("nested", ""), "yes");
}

TEST(Json, RoundTripsThroughDump) {
  json::Value original = json::Value::object();
  original.set("name", "qbpartd");
  original.set("count", 17);
  original.set("ratio", 0.375);
  json::Value list = json::Value::array();
  list.push_back(1);
  list.push_back("two");
  list.push_back(json::Value{});  // null
  original.set("list", std::move(list));

  json::Value reparsed;
  ASSERT_TRUE(json::parse(original.dump(), reparsed).ok);
  EXPECT_EQ(original, reparsed);
}

TEST(Json, EscapesAndUnicode) {
  json::Value value;
  ASSERT_TRUE(json::parse(R"(["\u0041\u00e9\u4e2d", "\"\\\/\b\f\n\r\t"])",
                          value)
                  .ok);
  EXPECT_EQ(value.at(0).as_string(), "A\xC3\xA9\xE4\xB8\xAD");
  EXPECT_EQ(value.at(1).as_string(), "\"\\/\b\f\n\r\t");
  // Serializing control characters escapes them back.
  json::Value reparsed;
  ASSERT_TRUE(json::parse(value.dump(), reparsed).ok);
  EXPECT_EQ(value, reparsed);
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  json::Value value;
  ASSERT_TRUE(json::parse(R"("\ud83d\ude00")", value).ok);  // emoji U+1F600
  EXPECT_EQ(value.as_string(), "\xF0\x9F\x98\x80");
  EXPECT_FALSE(json::parse(R"("\ud83d")", value).ok);  // lone high surrogate
}

TEST(Json, MalformedInputsFailWithMessages) {
  json::Value value;
  const char* bad[] = {
      "",           "{",           "[1,2",        "{\"a\":}",
      "[1,]",       "01",          "1.2.3",       "\"unterminated",
      "tru",        "nul",         "{\"a\" 1}",   "[1] trailing",
      "{\"a\":1,}", "\"\\q\"",     "+1",          "nan",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    const auto parsed = json::parse(text, value);
    EXPECT_FALSE(parsed.ok);
    EXPECT_FALSE(parsed.message.empty());
  }
}

TEST(Json, DeeplyNestedInputRejectedNotOverflowed) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  json::Value value;
  EXPECT_FALSE(json::parse(deep, value).ok);
}

TEST(Json, IntegersSerializeWithoutExponent) {
  json::Value value = json::Value::array();
  value.push_back(static_cast<std::int64_t>(1993));
  value.push_back(1e15);
  value.push_back(0.5);
  EXPECT_EQ(value.dump(), "[1993,1000000000000000,0.5]");
}

}  // namespace
}  // namespace qbp
