// Histogram, simulation time, CSV codec, string pool, mapped file and
// table renderer.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/histogram.h"
#include "util/mmap_file.h"
#include "util/simtime.h"
#include "util/string_pool.h"
#include "util/table.h"

namespace {

using namespace syrwatch::util;

// --- BinnedCounter ---------------------------------------------------------

TEST(BinnedCounter, RejectsBadArguments) {
  EXPECT_THROW(BinnedCounter(0, 0, 10), std::invalid_argument);
  EXPECT_THROW(BinnedCounter(0, 60, 0), std::invalid_argument);
}

TEST(BinnedCounter, BinsAndOverflow) {
  BinnedCounter counter{100, 10, 3};  // [100,110) [110,120) [120,130)
  counter.add(100);
  counter.add(109);
  counter.add(110);
  counter.add(129);
  counter.add(130);  // overflow high
  counter.add(99);   // overflow low
  EXPECT_EQ(counter.at(0), 2u);
  EXPECT_EQ(counter.at(1), 1u);
  EXPECT_EQ(counter.at(2), 1u);
  EXPECT_EQ(counter.overflow(), 2u);
  EXPECT_EQ(counter.total(), 4u);
  EXPECT_EQ(counter.bin_start(1), 110);
}

TEST(FrequencyOfFrequencies, Fig2Transform) {
  // 3 domains with 1 request, 1 domain with 5.
  const auto fof = frequency_of_frequencies({1, 1, 5, 1, 0});
  EXPECT_EQ(fof.at(1), 3u);
  EXPECT_EQ(fof.at(5), 1u);
  EXPECT_EQ(fof.count(0), 0u);  // zero counts dropped
}

// --- Simulation time -------------------------------------------------------

TEST(SimTime, KnownEpochs) {
  EXPECT_EQ(to_unix_seconds({1970, 1, 1, 0, 0, 0}), 0);
  EXPECT_EQ(to_unix_seconds({2011, 8, 3, 0, 0, 0}), 1312329600);
  EXPECT_EQ(to_unix_seconds({2011, 7, 22, 12, 30, 15}),
            1311337815);
}

TEST(SimTime, RoundTrip) {
  for (const std::int64_t t : {0L, 1312329600L, 1311337815L, 1312588799L}) {
    const auto c = to_civil(t);
    EXPECT_EQ(to_unix_seconds(c), t);
  }
}

TEST(SimTime, DayOfWeek) {
  // 2011-08-05 was a Friday (the protest Friday of §5.1).
  EXPECT_EQ(day_of_week(to_unix_seconds({2011, 8, 5, 12, 0, 0})), 5);
  // 2011-07-22 was also a Friday.
  EXPECT_EQ(day_of_week(to_unix_seconds({2011, 7, 22, 0, 0, 0})), 5);
  // 1970-01-01 was a Thursday.
  EXPECT_EQ(day_of_week(0), 4);
}

TEST(SimTime, Formatting) {
  const std::int64_t t = to_unix_seconds({2011, 8, 3, 8, 5, 9});
  EXPECT_EQ(format_date(t), "2011-08-03");
  EXPECT_EQ(format_datetime(t), "2011-08-03 08:05:09");
  EXPECT_EQ(format_clock(t), "08:05");
}

TEST(SimTime, HourOfDay) {
  const std::int64_t t = to_unix_seconds({2011, 8, 3, 6, 30, 0});
  EXPECT_NEAR(hour_of_day(t), 6.5, 1e-9);
}

// --- CSV --------------------------------------------------------------------

std::string escaped(std::string_view field) {
  std::string out;
  csv_append_escaped(out, field);
  return out;
}

TEST(Csv, EscapeOnlyWhenNeeded) {
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped("with,comma"), "\"with,comma\"");
  EXPECT_EQ(escaped("say \"hi\""), "\"say \"\"hi\"\"\"");
  std::string out = "kept,";
  csv_append_escaped(out, "x");
  EXPECT_EQ(out, "kept,x");  // appends, never clears
}

TEST(Csv, JoinParseRoundTrip) {
  const std::vector<std::string> fields{"a", "b,c", "d\"e", "", "f"};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line.push_back(',');
    csv_append_escaped(line, fields[i]);
  }
  std::array<std::string_view, 8> views;
  std::string scratch;
  const CsvSplit split = csv_split(line, views, scratch);
  ASSERT_EQ(split.error, CsvError::kNone);
  EXPECT_EQ(std::vector<std::string>(views.begin(),
                                     views.begin() + split.count),
            fields);
}

TEST(Csv, ParsePlain) {
  std::array<std::string_view, 8> views;
  std::string scratch;
  const CsvSplit split = csv_split("x,y,,z", views, scratch);
  ASSERT_EQ(split.count, 4u);
  EXPECT_EQ(views[2], "");
}

TEST(Csv, UnbalancedQuoteIsAnError) {
  std::array<std::string_view, 8> views;
  std::string scratch;
  EXPECT_EQ(csv_split("\"oops", views, scratch).error,
            CsvError::kUnbalancedQuote);
}

TEST(Csv, CountsFieldsPastTheSpan) {
  // Fields beyond the span are counted, not stored: a caller learns the
  // real column count without room for every field.
  std::array<std::string_view, 2> views;
  std::string scratch;
  const CsvSplit split = csv_split("a,b,c,d", views, scratch);
  EXPECT_EQ(split.error, CsvError::kNone);
  EXPECT_EQ(split.count, 4u);
  EXPECT_EQ(views[1], "b");
}

// --- StringPool --------------------------------------------------------------

TEST(StringPool, EmptyIsIdZero) {
  StringPool pool;
  EXPECT_EQ(pool.intern(""), StringPool::kEmpty);
  EXPECT_EQ(pool.view(StringPool::kEmpty), "");
}

TEST(StringPool, InternIsIdempotent) {
  StringPool pool;
  const auto a = pool.intern("facebook.com");
  const auto b = pool.intern("facebook.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.view(a), "facebook.com");
  EXPECT_EQ(pool.size(), 2u);  // empty + one
}

TEST(StringPool, ViewsStableAcrossGrowth) {
  StringPool pool;
  const auto id = pool.intern("stable");
  const auto view = pool.view(id);
  for (int i = 0; i < 10000; ++i) pool.intern("filler" + std::to_string(i));
  EXPECT_EQ(view, "stable");
  EXPECT_EQ(pool.view(id).data(), view.data());
}

TEST(StringPool, IdsSurviveGrowthInFirstSightOrder) {
  // The index grows (and re-places every id) many times over: every
  // string keeps its first-sight id, and lookup agrees with intern.
  StringPool pool;
  for (int i = 0; i < 20000; ++i)
    ASSERT_EQ(pool.intern("s" + std::to_string(i)),
              static_cast<StringPool::Id>(i + 1));
  for (int i = 0; i < 20000; ++i) {
    const std::string s = "s" + std::to_string(i);
    EXPECT_EQ(pool.intern(s), static_cast<StringPool::Id>(i + 1)) << s;
    EXPECT_EQ(pool.lookup(s), static_cast<StringPool::Id>(i + 1)) << s;
  }
  EXPECT_EQ(pool.size(), 20001u);
  EXPECT_EQ(pool.intern(""), StringPool::kEmpty);
  EXPECT_EQ(pool.lookup("s20000"), StringPool::kNotFound);
}

TEST(StringPool, LookupWithoutIntern) {
  StringPool pool;
  EXPECT_EQ(pool.lookup("missing"), StringPool::kNotFound);
  pool.intern("present");
  EXPECT_NE(pool.lookup("present"), StringPool::kNotFound);
}

TEST(StringPool, ViewOutOfRangeThrows) {
  StringPool pool;
  EXPECT_THROW(pool.view(42), std::out_of_range);
}

// --- MappedFile --------------------------------------------------------------

TEST(MappedFile, ReleasedPagesStayReadable) {
  const std::string path = testing::TempDir() + "syrwatch_mapped_release.bin";
  std::string bytes(3 * 65536 + 123, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>(i * 131 % 251);
  std::ofstream{path, std::ios::binary} << bytes;
  const auto file = MappedFile::open(path);
  ASSERT_EQ(file.bytes(), bytes);
  file.release(100, bytes.size() - 200);  // the whole pages inside
  file.release(0, bytes.size());
  file.release(bytes.size(), 1);  // past the end: ignored
  EXPECT_EQ(file.bytes(), bytes);
  std::remove(path.c_str());
}

// --- TextTable ---------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable table{{"Domain", "Requests"}};
  table.add_row({"facebook.com", "1,620,000"});
  table.add_row({"x.com", "7"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Domain       | Requests"), std::string::npos);
  EXPECT_NE(out.find("facebook.com | 1,620,000"), std::string::npos);
  EXPECT_NE(out.find("x.com        | 7"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table{{"A", "B", "C"}};
  table.add_row({"only one"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.render().find("only one"), std::string::npos);
}

TEST(TitledBlock, IncludesUnderline) {
  TextTable table{{"X"}};
  const std::string out = titled_block("Title", table);
  EXPECT_NE(out.find("Title\n====="), std::string::npos);
}

}  // namespace
