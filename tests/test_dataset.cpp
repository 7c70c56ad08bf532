// Dataset store: interning, classification, arrival order, chunking, scan
// slices, the derived Table 1 views (derive_sources, masked views), all
// checked through the LogSource records a scan sees, and the csv load
// through open_source at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/scan.h"
#include "proxy/log_io.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

proxy::LogRecord make_record(const char* url_text, std::int64_t time,
                             proxy::FilterResult result,
                             proxy::ExceptionId exception,
                             std::uint8_t proxy_index = 0,
                             std::uint64_t user_hash = 7) {
  proxy::LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = user_hash;
  record.method = "GET";
  record.url = *net::Url::parse(url_text);
  record.filter_result = result;
  record.exception = exception;
  return record;
}

std::int64_t at(int month, int day, int hour = 12) {
  return util::to_unix_seconds({2011, month, day, hour, 0, 0});
}

/// Every record of the dataset as the scan layer presents it.
std::vector<Record> records_of(const Dataset& dataset) {
  std::vector<Record> records;
  scan_increment(LogSource{dataset}, 0,
                 [&](const Record& r) { records.push_back(r); });
  return records;
}

TEST(Dataset, InternsRepeatedStrings) {
  Dataset dataset;
  for (int i = 0; i < 100; ++i) {
    dataset.add(make_record("http://www.facebook.com/home.php", at(8, 1),
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  EXPECT_EQ(dataset.size(), 100u);
  const auto records = records_of(dataset);
  ASSERT_EQ(records.size(), 100u);
  EXPECT_EQ(records.front().host_id, records.back().host_id);
  EXPECT_EQ(records.front().host.data(), records.back().host.data());
  EXPECT_EQ(records.front().host, "www.facebook.com");
  EXPECT_EQ(records.front().path, "/home.php");
}

/// Partitions are contiguous, in row order, inside one chunk each and at
/// most LogSource::kSliceRows rows long; returns their sizes.
std::vector<std::uint64_t> checked_partitions(const LogSource& source) {
  std::vector<std::uint64_t> sizes;
  std::uint64_t expected = 0;
  for (std::size_t p = 0; p < source.partitions(); ++p) {
    const std::uint64_t first = expected;
    source.scan_partition(p, [&](const Record& r) {
      EXPECT_EQ(r.ordinal, expected++);
    });
    EXPECT_EQ(source.partition_base_end(p), expected) << p;
    EXPECT_LE(expected - first, LogSource::kSliceRows) << p;
    EXPECT_GT(expected - first, 0u) << p;
    sizes.push_back(expected - first);
  }
  EXPECT_EQ(expected, source.base_rows());
  return sizes;
}

TEST(Dataset, PartitionsAreSlicesOfChunks) {
  Dataset dataset;
  for (std::size_t i = 0; i < Dataset::kChunkRows + 3; ++i) {
    dataset.add(make_record("http://a.com/", at(8, 1) + i % 7,
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  constexpr std::uint64_t kSlice = LogSource::kSliceRows;
  EXPECT_EQ(checked_partitions(LogSource{dataset}),
            (std::vector<std::uint64_t>{kSlice, kSlice, kSlice, kSlice, 3}));
}

TEST(Dataset, ScanIncrementOverAGrowingDatasetScansEachRowOnce) {
  // Polls land mid-slice, on a slice edge and across a chunk edge.
  Dataset dataset;
  const LogSource source{dataset};
  std::vector<std::uint64_t> seen;
  std::uint64_t high_water = 0;
  std::uint64_t added = 0;
  for (const std::uint64_t grow :
       {std::uint64_t{0}, std::uint64_t{1000}, LogSource::kSliceRows - 1000,
        std::uint64_t{1}, Dataset::kChunkRows, std::uint64_t{20'000}}) {
    for (std::uint64_t i = 0; i < grow; ++i, ++added)
      dataset.add(make_record("http://a.com/", at(8, 1) + added % 11,
                              proxy::FilterResult::kObserved,
                              proxy::ExceptionId::kNone));
    high_water = scan_increment(source, high_water, [&](const Record& r) {
      seen.push_back(r.ordinal);
    });
    EXPECT_EQ(high_water, added);
    checked_partitions(source);
  }
  ASSERT_EQ(seen.size(), added);
  for (std::uint64_t i = 0; i < added; ++i) ASSERT_EQ(seen[i], i);
}

TEST(Dataset, KeepsArrivalOrderAndTracksTimeBounds) {
  Dataset dataset;
  for (const auto& [host, day] :
       {std::pair{"http://b.com/", 3}, {"http://a.com/", 1},
        {"http://c.com/", 2}}) {
    dataset.add(make_record(host, at(8, day), proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  const auto records = records_of(dataset);
  EXPECT_EQ(records[0].host, "b.com");
  EXPECT_EQ(records[1].host, "a.com");
  EXPECT_EQ(dataset.first_time(), at(8, 1));
  EXPECT_EQ(dataset.last_time(), at(8, 3));
  const auto bounds = LogSource{dataset}.time_bounds();
  EXPECT_EQ(bounds.first, at(8, 1));
  EXPECT_EQ(bounds.last, at(8, 3));
}

TEST(Dataset, HostValuesResolvedAtAdd) {
  Dataset dataset;
  dataset.add(make_record("http://ar-ar.facebook.com/x", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  // A query string equal to a later host must not pre-empt that host's
  // entry: only host ids are resolved.
  dataset.add(make_record("http://a.com/x?10.0.0.1", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://10.0.0.1/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  const auto records = records_of(dataset);
  EXPECT_EQ(records[0].domain, "facebook.com");
  EXPECT_FALSE(records[0].host_is_ip);
  EXPECT_FALSE(records[1].host_is_ip);
  EXPECT_TRUE(records[2].host_is_ip);
  EXPECT_EQ(records[2].host_ip, net::Ipv4Addr(10, 0, 0, 1).value());
}

TEST(Dataset, RecordFilterTextIncludesQuery) {
  Dataset dataset;
  dataset.add(make_record("http://g.com/tbproxy/af/query?q=1", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  std::string text;
  scan_increment(LogSource{dataset}, 0,
                 [&](const Record& r) { text = r.filter_text(); });
  EXPECT_EQ(text, "g.com/tbproxy/af/query?q=1");
}

TEST(Dataset, ClassMatchesSection33) {
  Dataset dataset;
  dataset.add(make_record("http://a.com/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://b.com/", at(8, 1),
                          proxy::FilterResult::kDenied,
                          proxy::ExceptionId::kPolicyDenied));
  dataset.add(make_record("http://c.com/", at(8, 1),
                          proxy::FilterResult::kDenied,
                          proxy::ExceptionId::kTcpError));
  dataset.add(make_record("http://d.com/", at(8, 1),
                          proxy::FilterResult::kProxied,
                          proxy::ExceptionId::kNone));
  const auto records = records_of(dataset);
  EXPECT_EQ(records[0].cls, proxy::TrafficClass::kAllowed);
  EXPECT_EQ(records[1].cls, proxy::TrafficClass::kCensored);
  EXPECT_EQ(records[2].cls, proxy::TrafficClass::kError);
  EXPECT_EQ(records[3].cls, proxy::TrafficClass::kProxied);
}

TEST(Masked, RejectsMaskOfWrongLength) {
  Dataset dataset;
  for (int i = 0; i < 3; ++i) {
    dataset.add(make_record("http://a.com/", at(8, 1),
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  const LogSource source{dataset};
  for (const std::size_t size : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_THROW(source.masked(std::make_shared<std::vector<std::uint8_t>>(
                     size, std::uint8_t{1})),
                 std::invalid_argument)
        << size;
  }
  EXPECT_THROW(source.masked(nullptr), std::invalid_argument);
  const auto view = source.masked(
      std::make_shared<std::vector<std::uint8_t>>(
          std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_EQ(view.rows(), 2u);
}

TEST(DeriveSources, SplitsCorrectly) {
  Dataset full;
  // SG-42 on July 22 with hash (Duser material).
  full.add(make_record("http://a.com/", at(7, 22),
                       proxy::FilterResult::kObserved,
                       proxy::ExceptionId::kNone, 0, 11));
  // SG-42 on July 22 but hash suppressed: excluded from Duser.
  full.add(make_record("http://a2.com/", at(7, 22),
                       proxy::FilterResult::kObserved,
                       proxy::ExceptionId::kNone, 0, 0));
  // SG-44 in August: not Duser.
  full.add(make_record("http://b.com/", at(8, 3),
                       proxy::FilterResult::kDenied,
                       proxy::ExceptionId::kPolicyDenied, 2, 0));
  // Error: lands in Ddenied.
  full.add(make_record("http://c.com/", at(8, 4),
                       proxy::FilterResult::kDenied,
                       proxy::ExceptionId::kTcpError, 3, 0));

  const auto derived = derive_sources(full, 1);
  EXPECT_EQ(derived.full.rows(), 4u);
  ASSERT_EQ(derived.user.rows(), 1u);
  scan_increment(derived.user, 0,
                 [](const Record& r) { EXPECT_EQ(r.host, "a.com"); });
  EXPECT_EQ(derived.denied.rows(), 2u);
  EXPECT_LE(derived.sample.rows(), derived.full.rows());
  // Views are only defined over an unmasked Dfull.
  EXPECT_THROW(derive_sources(derived.denied, 1), std::invalid_argument);
}

Dataset uniform_log(int rows) {
  Dataset full;
  for (int i = 0; i < rows; ++i) {
    full.add(make_record("http://a.com/", at(8, 1) + i,
                         proxy::FilterResult::kObserved,
                         proxy::ExceptionId::kNone));
  }
  return full;
}

TEST(DeriveSources, SampleRateApproximatelyHonored) {
  const Dataset full = uniform_log(50'000);
  const auto derived = derive_sources(full, 3);
  EXPECT_NEAR(derived.sample.rows() / 50'000.0, 0.04, 0.005);
}

TEST(DeriveSources, SampleIsDeterministicAndThreadInvariant) {
  const Dataset full = uniform_log(5000);
  const auto members = [&](std::size_t threads) {
    std::vector<std::uint64_t> ordinals;
    scan_increment(derive_sources(full, 77, threads).sample, 0,
                   [&](const Record& r) { ordinals.push_back(r.ordinal); });
    return ordinals;
  };
  const auto reference = members(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(members(1), reference);
  EXPECT_EQ(members(4), reference);
}

TEST(DeriveSources, SampleDrawFollowsTimeOrderNotArrivalOrder) {
  // The same records in two arrival orders: the Bernoulli draw walks
  // them in stable time order, so the sampled set is identical.
  Dataset forward, backward;
  constexpr int kRows = 3000;
  for (int i = 0; i < kRows; ++i) {
    forward.add(make_record("http://a.com/", at(8, 1) + i,
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
    backward.add(make_record("http://a.com/", at(8, 1) + (kRows - 1 - i),
                             proxy::FilterResult::kObserved,
                             proxy::ExceptionId::kNone));
  }
  const auto sampled_times = [](const Dataset& dataset) {
    std::vector<std::int64_t> times;
    scan_increment(derive_sources(dataset, 5).sample, 0,
                   [&](const Record& r) { times.push_back(r.time); });
    std::sort(times.begin(), times.end());
    return times;
  };
  EXPECT_EQ(sampled_times(forward), sampled_times(backward));
}

// --- csv loads at any thread count ------------------------------------------

/// Lines of a csv log of over three parse windows, with what the
/// windowing must keep whole: CRLF lines, blank lines, doubled-quote
/// fields (the lines across the window boundaries among them) and one
/// line longer than a window.
std::vector<std::string> windowed_lines() {
  std::vector<std::string> lines{proxy::log_csv_header() + "\n"};
  std::size_t bytes = lines.front().size();
  std::size_t boundary = proxy::kParseWindowBytes;
  std::size_t crossing_quotes = 0;
  for (int i = 0; bytes <= 3 * proxy::kParseWindowBytes; ++i) {
    proxy::LogRecord record = make_record(
        "http://a.com/", at(7, 22 + i % 9, i % 24),
        i % 5 == 0 ? proxy::FilterResult::kDenied
                   : proxy::FilterResult::kObserved,
        i % 5 == 0 ? proxy::ExceptionId::kPolicyDenied
                   : proxy::ExceptionId::kNone,
        static_cast<std::uint8_t>(i % 7), static_cast<std::uint64_t>(i % 301));
    record.url.host = "h" + std::to_string(i % 2000) + ".example.com";
    if (i % 97 == 0) record.url.host = "10.0.0." + std::to_string(i % 250);
    record.url.path = "/p/" + std::to_string(i);
    record.user_agent = "UA " + std::to_string(i % 50);
    if (i == 5000) record.url.query.assign(proxy::kParseWindowBytes + 99, 'q');
    std::string line;
    for (bool quoted = i % 13 == 0;; quoted = true) {
      if (quoted)
        record.user_agent = "Mozilla \"x, " + std::to_string(i) + "\"";
      line.clear();
      proxy::append_csv(proxy::view_of(record), line);
      const bool crosses = bytes < boundary && bytes + line.size() > boundary;
      if (!crosses || quoted) {
        crossing_quotes += crosses;
        break;
      }
    }
    if (i % 7 == 3) line.insert(line.size() - 1, "\r");
    bytes += line.size();
    while (boundary < bytes) boundary += proxy::kParseWindowBytes;
    lines.push_back(std::move(line));
    if (i % 500 == 499) {
      lines.push_back(i % 1000 == 999 ? "\r\n" : "\n");
      bytes += lines.back().size();
    }
  }
  EXPECT_GE(crossing_quotes, 3u);
  return lines;
}

std::string write_log_text(const std::string& name, const std::string& text) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::ofstream{path, std::ios::binary} << text;
  return path;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

/// Rows, every column, the id → text table and the host table.
void expect_same_store(const ColumnStore& want, const ColumnStore& got) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.chunks().size(), want.chunks().size());
  for (std::size_t c = 0; c < want.chunks().size(); ++c) {
    const colfmt::DecodedBlock& w = want.chunks()[c];
    const colfmt::DecodedBlock& g = got.chunks()[c];
    EXPECT_EQ(g.rows, w.rows);
    EXPECT_EQ(g.row_base, w.row_base);
    EXPECT_TRUE(g.time == w.time && g.user_hash == w.user_hash &&
                g.method == w.method && g.host == w.host &&
                g.path == w.path && g.query == w.query &&
                g.agent == w.agent && g.categories == w.categories &&
                g.port == w.port && g.status == w.status &&
                g.proxy_index == w.proxy_index && g.scheme == w.scheme &&
                g.filter_result == w.filter_result &&
                g.exception == w.exception && g.dest_ip == w.dest_ip &&
                g.has_dest == w.has_dest)
        << "chunk " << c;
    for (const std::uint32_t id : w.host) {
      const ColumnStore::HostInfo& a = want.host(id);
      const ColumnStore::HostInfo& b = got.host(id);
      ASSERT_TRUE(a.domain == b.domain && a.ip == b.ip && a.is_ip == b.is_ip)
          << want.text(id);
    }
  }
  ASSERT_EQ(got.text_count(), want.text_count());
  for (std::uint32_t id = 0; id < want.text_count(); ++id)
    ASSERT_EQ(got.text(id), want.text(id)) << id;
  EXPECT_EQ(got.first_time(), want.first_time());
  EXPECT_EQ(got.last_time(), want.last_time());
}

TEST(OpenSource, CsvLoadIsThreadCountInvariant) {
  const std::vector<std::string> lines = windowed_lines();
  const std::string path = write_log_text("windowed.csv", joined(lines));
  // The serial loop the parse-ahead reader replaced: frame and add each
  // line as it comes.
  Dataset serial;
  proxy::LogLineReader reader;
  for (const std::string& line : lines)
    if (reader.frame(std::string_view{line}.substr(0, line.size() - 1)) ==
        proxy::LineKind::kRecord)
      serial.add(reader.record());
  for (const bool lenient : {false, true}) {
    const OpenedSource want = open_source(
        path, {.format = "csv", .lenient = lenient, .threads = 1});
    EXPECT_GT(want.rows(), 15'000u);
    expect_same_store(serial, want.store());
    for (const std::size_t threads : {2, 3, 4, 7}) {
      const OpenedSource got = open_source(
          path, {.format = "csv", .lenient = lenient, .threads = threads});
      expect_same_store(want.store(), got.store());
      EXPECT_EQ(got.read_stats().lines, want.read_stats().lines);
      EXPECT_EQ(got.read_stats().empty_lines, want.read_stats().empty_lines);
      EXPECT_EQ(got.read_stats().recovered, want.read_stats().recovered);
    }
    if (lenient) {
      EXPECT_EQ(want.read_stats().lines, lines.size());
      EXPECT_EQ(want.read_stats().recovered, want.rows());
      EXPECT_EQ(want.read_stats().skipped_total(), 0u);
    }
  }
  std::filesystem::remove(path);
}

struct Refusal {
  SourceOpenErrorCode code = SourceOpenErrorCode::kNotFound;
  std::string what;
};

Refusal refusal_of(const std::string& path, std::size_t threads) {
  try {
    open_source(path, {.format = "csv", .threads = threads});
  } catch (const SourceOpenError& error) {
    return {error.code(), error.what()};
  }
  ADD_FAILURE() << path << " opened at " << threads << " threads";
  return {};
}

TEST(OpenSource, StrictCsvRefusalsAreThreadCountInvariant) {
  const std::vector<std::string> lines = windowed_lines();
  const auto with_bad_line = [&](std::size_t at) {
    std::vector<std::string> damaged = lines;
    damaged.insert(damaged.begin() + static_cast<std::ptrdiff_t>(at),
                   "2011-07-22,garbage\n");
    return joined(damaged);
  };
  // The first line past the second window boundary.
  std::size_t later = 0;
  for (std::size_t bytes = 0; bytes <= 2 * proxy::kParseWindowBytes; ++later)
    bytes += lines[later].size();
  const std::string text = joined(lines);
  const struct {
    const char* name;
    std::string text;
    SourceOpenErrorCode code;
    std::string detail;
  } cases[] = {
      {"first-window.csv", with_bad_line(3), SourceOpenErrorCode::kMalformed,
       "line 4: wrong column count"},
      {"later-window.csv", with_bad_line(later),
       SourceOpenErrorCode::kMalformed,
       "line " + std::to_string(later + 1) + ": wrong column count"},
      {"last-line.csv", with_bad_line(lines.size()),
       SourceOpenErrorCode::kMalformed,
       "line " + std::to_string(lines.size() + 1) + ": wrong column count"},
      {"no-header.csv", text.substr(lines.front().size()),
       SourceOpenErrorCode::kBadMagic, "first line is not the log CSV header"},
      {"torn-tail.csv", text.substr(0, text.size() - 1),
       SourceOpenErrorCode::kTornTail, "final line lacks a newline"},
  };
  for (const auto& c : cases) {
    const std::string path = write_log_text(c.name, c.text);
    const Refusal want = refusal_of(path, 1);
    EXPECT_EQ(want.code, c.code) << c.name;
    EXPECT_NE(want.what.find(c.detail), std::string::npos)
        << c.name << ": " << want.what;
    const Refusal got = refusal_of(path, 4);
    EXPECT_EQ(got.code, want.code) << c.name;
    EXPECT_EQ(got.what, want.what) << c.name;
    std::filesystem::remove(path);
  }
}

}  // namespace
