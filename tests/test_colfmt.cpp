// Columnar container: round trips, checksum/truncation failure modes, and
// byte-identity of the columnar analyzers against the row path.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/coverage.h"
#include "analysis/dataset.h"
#include "analysis/proxy_compare.h"
#include "analysis/temporal.h"
#include "analysis/top_domains.h"
#include "analysis/tor_analysis.h"
#include "colfmt/container.h"
#include "proxy/log_io.h"
#include "tor/relay_directory.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           ("syrwatch_colfmt_" + tag + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const char* name) const { return (path / name).string(); }
};

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

void truncate_file(const std::string& path, std::uint64_t size) {
  fs::resize_file(path, size);
}

proxy::LogRecord record_at(std::int64_t time, const char* url_text,
                           proxy::FilterResult result,
                           proxy::ExceptionId exception,
                           std::uint8_t proxy_index = 0,
                           std::uint64_t user_hash = 7) {
  proxy::LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = user_hash;
  record.method = "GET";
  record.user_agent = "Mozilla/5.0";
  record.categories = "News/Media";
  record.url = *net::Url::parse(url_text);
  record.filter_result = result;
  record.exception = exception;
  record.status = result == proxy::FilterResult::kDenied ? 403 : 200;
  return record;
}

/// Deterministic, time-ordered workload touching every column: all seven
/// proxies, all four traffic classes, IP-literal hosts with dest_ip (some
/// of them Tor relay endpoints), suppressed and kept user hashes, commas
/// and quotes and UTF-8 in the string columns.
std::vector<proxy::LogRecord> varied_records(std::size_t n,
                                             const tor::RelayDirectory& relays) {
  static const char* kHosts[] = {
      "www.facebook.com", "al-akhbar.com",     "www.google.com",
      "skype.com",        "xn--mgbh0fb.example", "static.ak.fbcdn.net",
      "metacafe.com",     "israel.example.il",
  };
  static const char* kPaths[] = {
      "/", "/home.php", "/watch?v=1", "/wiki/%D8%AF%D9%85%D8%B4%D9%82",
      "/a,b/\"quoted\"/path",
  };
  static const char* kAgents[] = {
      "Mozilla/5.0 (Windows NT 6.1)", "Opera/9.80 \"tag\", more", "-",
  };
  static const char* kCategories[] = {
      "News/Media", "Social Networking, Personals", "none", "-",
      "سياسة",  // Arabic "politics"
  };
  const std::int64_t base = util::to_unix_seconds({2011, 8, 1, 0, 0, 0});
  std::vector<proxy::LogRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    proxy::LogRecord record;
    record.time = base + static_cast<std::int64_t>(i * 7);
    record.proxy_index = static_cast<std::uint8_t>(i % 7);
    record.user_hash = i % 5 == 0 ? 0 : 1000 + i % 97;
    record.method = i % 11 == 0 ? "POST" : "GET";
    record.user_agent = kAgents[i % 3];
    record.categories = kCategories[i % 5];
    if (i % 13 == 0) {
      // Tor-looking traffic: relay endpoint addressed by IP literal.
      const auto& relay = relays.relays()[i % relays.size()];
      record.url.scheme = net::Scheme::kHttp;
      record.url.host = relay.address.to_string();
      record.url.port = relay.or_port;
      record.url.path = "/";
      record.dest_ip = relay.address;
      record.filter_result = i % 26 == 0 ? proxy::FilterResult::kDenied
                                         : proxy::FilterResult::kObserved;
      record.exception = i % 26 == 0 ? proxy::ExceptionId::kPolicyDenied
                                     : proxy::ExceptionId::kNone;
    } else {
      record.url.scheme = i % 4 == 0 ? net::Scheme::kHttps
                                     : net::Scheme::kHttp;
      record.url.host = kHosts[i % 8];
      record.url.port = net::default_port(record.url.scheme);
      record.url.path = kPaths[i % 5];
      if (i % 6 == 0) record.url.query = "q=res,\"x\"&n=" + std::to_string(i);
      switch (i % 10) {
        case 0:
          record.filter_result = proxy::FilterResult::kDenied;
          record.exception = proxy::ExceptionId::kPolicyDenied;
          break;
        case 1:
          record.filter_result = proxy::FilterResult::kObserved;
          record.exception = proxy::ExceptionId::kTcpError;
          break;
        case 2:
          record.filter_result = proxy::FilterResult::kProxied;
          record.exception = proxy::ExceptionId::kPolicyRedirect;
          break;
        default:
          record.filter_result = proxy::FilterResult::kObserved;
          record.exception = proxy::ExceptionId::kNone;
          break;
      }
    }
    record.status = record.exception == proxy::ExceptionId::kNone ? 200 : 403;
    records.push_back(record);
  }
  return records;
}

std::string write_container(const std::string& path,
                            const std::vector<proxy::LogRecord>& records,
                            std::size_t block_rows = 256) {
  colfmt::WriterOptions options;
  options.block_rows = block_rows;
  colfmt::Writer writer{path, options};
  for (const auto& record : records) writer.add(record);
  writer.finish();
  return path;
}

std::string to_csv_text(const std::vector<proxy::LogRecord>& records) {
  std::string text = proxy::log_csv_header() + "\n";
  for (const auto& record : records) text += proxy::to_csv(record) + "\n";
  return text;
}

// --- round trips -----------------------------------------------------------

TEST(ColfmtRoundTrip, PreservesEveryFieldAcrossBlocks) {
  TempDir dir{"roundtrip"};
  const auto relays = tor::RelayDirectory::synthesize(40, 99);
  const auto records = varied_records(2000, relays);
  const auto path = write_container(dir.file("log.col"), records, 256);

  const auto reader = colfmt::Reader::open(path);
  EXPECT_EQ(reader.rows(), records.size());
  EXPECT_GT(reader.block_count(), 1u);
  std::size_t i = 0;
  for (std::size_t b = 0; b < reader.block_count(); ++b) {
    const auto block = reader.decode(b);
    for (std::size_t r = 0; r < block.rows; ++r, ++i) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(proxy::to_csv(reader.record(block, r)),
                proxy::to_csv(records[i]))
          << "row " << i;
    }
  }
  EXPECT_EQ(i, records.size());
}

TEST(ColfmtRoundTrip, CsvColCsvIsByteIdentical) {
  TempDir dir{"csvcol"};
  const auto relays = tor::RelayDirectory::synthesize(40, 99);
  const auto records = varied_records(500, relays);
  const std::string csv_in = to_csv_text(records);

  // CSV -> col: parse every line the way `syrwatchctl convert` does.
  colfmt::Writer writer{dir.file("log.col")};
  std::istringstream in{csv_in};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_EQ(line, proxy::log_csv_header());
  while (std::getline(in, line)) {
    const auto record = proxy::from_csv(line);
    ASSERT_TRUE(record.has_value()) << line;
    writer.add(*record);
  }
  writer.finish();

  // col -> CSV.
  const auto reader = colfmt::Reader::open(dir.file("log.col"));
  std::string csv_out = proxy::log_csv_header() + "\n";
  for (std::size_t b = 0; b < reader.block_count(); ++b) {
    const auto block = reader.decode(b);
    for (std::size_t r = 0; r < block.rows; ++r)
      csv_out += proxy::to_csv(reader.record(block, r)) + "\n";
  }
  EXPECT_EQ(csv_in, csv_out);
}

TEST(ColfmtRoundTrip, DictSurvivesQuotedCommaAndUtf8Strings) {
  TempDir dir{"dict"};
  std::vector<proxy::LogRecord> records;
  const std::int64_t base = util::to_unix_seconds({2011, 8, 1, 0, 0, 0});
  auto record = record_at(base, "http://example.com/",
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone);
  record.categories = "News, \"Media\", Politics";
  record.url.path = "/دمشق/page";
  record.url.query = "q=\"a,b\"";
  record.user_agent = "agent \"v1.0\", embedded";
  records.push_back(record);
  record.time = base + 1;
  record.categories = "";  // empty string must map to dict id 0
  record.user_agent = "";
  records.push_back(record);
  const auto path = write_container(dir.file("log.col"), records);

  const auto reader = colfmt::Reader::open(path);
  const auto block = reader.decode(0);
  EXPECT_EQ(proxy::to_csv(reader.record(block, 0)),
            proxy::to_csv(records[0]));
  EXPECT_EQ(proxy::to_csv(reader.record(block, 1)),
            proxy::to_csv(records[1]));
}

TEST(ColfmtRoundTrip, EmptyContainer) {
  TempDir dir{"empty"};
  colfmt::Writer writer{dir.file("log.col")};
  writer.finish();
  const auto reader = colfmt::Reader::open(dir.file("log.col"));
  EXPECT_EQ(reader.rows(), 0u);
  EXPECT_EQ(reader.block_count(), 0u);
  const auto report = colfmt::verify_file(dir.file("log.col"));
  EXPECT_TRUE(report.ok);
}

TEST(ColfmtWriter, RejectsInvalidProxyIndex) {
  TempDir dir{"badproxy"};
  colfmt::Writer writer{dir.file("log.col")};
  auto record = record_at(0, "http://example.com/",
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone);
  record.proxy_index = 7;
  EXPECT_THROW(writer.add(record), std::invalid_argument);
  writer.abandon();
}

// --- verification and damage ----------------------------------------------

TEST(ColfmtVerify, IntactContainerPasses) {
  TempDir dir{"verify"};
  const auto relays = tor::RelayDirectory::synthesize(40, 99);
  const auto records = varied_records(1000, relays);
  const auto path = write_container(dir.file("log.col"), records, 256);

  const auto report = colfmt::verify_file(path);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.footer_ok);
  EXPECT_EQ(report.rows, records.size());
  EXPECT_EQ(report.pages_checked, report.blocks * colfmt::kPageCount);
  EXPECT_EQ(report.bad_pages, 0u);
}

TEST(ColfmtVerify, CorruptPagePayloadIsDetected) {
  TempDir dir{"corrupt"};
  const auto relays = tor::RelayDirectory::synthesize(40, 99);
  const auto records = varied_records(1000, relays);
  const auto path = write_container(dir.file("log.col"), records, 256);
  const auto intact = colfmt::Reader::open(path);
  ASSERT_GE(intact.block_count(), 3u);
  // Flip one byte inside the second block, past its header and past the
  // dict page header — some page payload byte.
  const auto offset = intact.blocks()[1].offset + 16 + 8 + 3;
  flip_byte(path, offset);

  const auto report = colfmt::verify_file(path);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.bad_pages, 1u);
  EXPECT_NE(report.first_error.find("checksum"), std::string::npos)
      << report.first_error;

  // Lenient recovery keeps everything before the damaged block.
  colfmt::RecoveryStats stats;
  const auto reader = colfmt::Reader::open_lenient(path, &stats);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_EQ(stats.blocks_recovered, 1u);
  EXPECT_EQ(reader.rows(), intact.blocks()[0].rows);
  EXPECT_FALSE(stats.damage.empty());
  const auto block = reader.decode(0);
  EXPECT_EQ(proxy::to_csv(reader.record(block, 0)),
            proxy::to_csv(records[0]));
}

TEST(ColfmtVerify, TruncatedTailRecoversIntactPrefix) {
  TempDir dir{"truncate"};
  const auto relays = tor::RelayDirectory::synthesize(40, 99);
  const auto records = varied_records(1500, relays);
  const auto path = write_container(dir.file("log.col"), records, 256);
  const auto intact = colfmt::Reader::open(path);
  ASSERT_GE(intact.block_count(), 4u);
  // Tear the file mid-way through the fourth block: footer and index are
  // gone, the first three blocks are whole.
  truncate_file(path, intact.blocks()[3].offset + 21);

  EXPECT_THROW(colfmt::Reader::open(path), std::runtime_error);
  EXPECT_FALSE(colfmt::verify_file(path).ok);

  colfmt::RecoveryStats stats;
  const auto reader = colfmt::Reader::open_lenient(path, &stats);
  EXPECT_FALSE(stats.footer_ok);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_EQ(stats.blocks_recovered, 3u);
  EXPECT_EQ(stats.bytes_recovered, intact.blocks()[3].offset);
  std::uint64_t expected_rows = 0;
  for (std::size_t b = 0; b < 3; ++b)
    expected_rows += intact.blocks()[b].rows;
  EXPECT_EQ(stats.rows_recovered, expected_rows);
  EXPECT_EQ(reader.rows(), expected_rows);

  // The recovered prefix reads back exactly.
  std::size_t i = 0;
  for (std::size_t b = 0; b < reader.block_count(); ++b) {
    const auto block = reader.decode(b);
    for (std::size_t r = 0; r < block.rows; ++r, ++i) {
      ASSERT_EQ(proxy::to_csv(reader.record(block, r)),
                proxy::to_csv(records[i]))
          << "row " << i;
    }
  }
}

TEST(ColfmtVerify, CorruptDictPageFailsStrictOpen) {
  TempDir dir{"dictcrc"};
  const auto relays = tor::RelayDirectory::synthesize(40, 99);
  const auto records = varied_records(300, relays);
  const auto path = write_container(dir.file("log.col"), records);
  // Dict page is the first page of the block: magic (8) + block header
  // (16) + page header (8) puts us at its first payload byte.
  flip_byte(path, 8 + 16 + 8);
  EXPECT_THROW(colfmt::Reader::open(path), std::runtime_error);
  colfmt::RecoveryStats stats;
  const auto reader = colfmt::Reader::open_lenient(path, &stats);
  EXPECT_EQ(reader.rows(), 0u);
  EXPECT_TRUE(stats.truncated_tail);
}

// --- columnar analyzers vs the row path ------------------------------------

struct AnalysisFixture {
  tor::RelayDirectory relays = tor::RelayDirectory::synthesize(40, 99);
  std::vector<proxy::LogRecord> records;
  analysis::Dataset dataset;
  std::int64_t start = 0;
  std::int64_t end = 0;

  explicit AnalysisFixture(TempDir& dir, std::size_t n = 4000) {
    records = varied_records(n, relays);
    for (const auto& record : records) dataset.add(record);
    start = records.front().time;
    end = records.back().time + 1;
    write_container(dir.file("log.col"), records, 512);
  }
};

void expect_same_top(const std::vector<analysis::DomainCount>& row,
                     const std::vector<analysis::DomainCount>& col) {
  ASSERT_EQ(row.size(), col.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].domain, col[i].domain) << i;
    EXPECT_EQ(row[i].count, col[i].count) << i;
    EXPECT_EQ(row[i].share, col[i].share) << i;  // exact, not approximate
  }
}

TEST(ColumnarAnalysis, MatchesRowAnalyzers) {
  TempDir dir{"identity"};
  AnalysisFixture fx{dir};
  analysis::ColumnarLog log{colfmt::Reader::open(dir.file("log.col"))};

  for (const auto cls : {proxy::TrafficClass::kCensored,
                         proxy::TrafficClass::kAllowed,
                         proxy::TrafficClass::kError}) {
    analysis::TopDomainsOptions options{cls, 100, std::nullopt};
    expect_same_top(analysis::top_domains(fx.dataset, options),
                    analysis::top_domains(log, options));
  }

  const analysis::TrafficSeriesOptions series_options{{fx.start, fx.end},
                                                      {300}};
  const auto row_series =
      analysis::traffic_time_series(fx.dataset, series_options);
  const auto col_series = analysis::traffic_time_series(log, series_options);
  EXPECT_EQ(row_series.censored.counts(), col_series.censored.counts());
  EXPECT_EQ(row_series.allowed.counts(), col_series.allowed.counts());
  EXPECT_EQ(row_series.censored.overflow(), col_series.censored.overflow());

  const analysis::RcvOptions rcv_options{{fx.start, fx.end}, {300}};
  const auto row_rcv = analysis::rcv_series(fx.dataset, rcv_options);
  const auto col_rcv = analysis::rcv_series(log, rcv_options);
  EXPECT_EQ(row_rcv.rcv, col_rcv.rcv);

  const auto row_cov = analysis::request_coverage(
      fx.dataset, {.bin = {3600}, .min_farm_bin_requests = 2});
  const auto col_cov = analysis::request_coverage(
      log, {.bin = {3600}, .min_farm_bin_requests = 2});
  ASSERT_EQ(row_cov.days.size(), col_cov.days.size());
  for (std::size_t d = 0; d < row_cov.days.size(); ++d) {
    EXPECT_EQ(row_cov.days[d].day_start, col_cov.days[d].day_start);
    EXPECT_EQ(row_cov.days[d].requests, col_cov.days[d].requests);
  }
  EXPECT_EQ(row_cov.totals, col_cov.totals);
  EXPECT_EQ(row_cov.total_requests, col_cov.total_requests);
  EXPECT_EQ(row_cov.active_bins, col_cov.active_bins);
  EXPECT_EQ(row_cov.covered_bins, col_cov.covered_bins);
  ASSERT_EQ(row_cov.gaps.size(), col_cov.gaps.size());
  for (std::size_t g = 0; g < row_cov.gaps.size(); ++g) {
    EXPECT_EQ(row_cov.gaps[g].proxy_index, col_cov.gaps[g].proxy_index);
    EXPECT_EQ(row_cov.gaps[g].start, col_cov.gaps[g].start);
    EXPECT_EQ(row_cov.gaps[g].end, col_cov.gaps[g].end);
    EXPECT_EQ(row_cov.gaps[g].farm_requests, col_cov.gaps[g].farm_requests);
  }

  const auto row_sim =
      analysis::censored_domain_similarity(fx.dataset, {{fx.start, fx.end}});
  const auto col_sim =
      analysis::censored_domain_similarity(log, {{fx.start, fx.end}});
  EXPECT_EQ(row_sim.matrix, col_sim.matrix);  // bit-exact doubles

  for (const std::size_t proxy : {std::size_t{0}, std::size_t{3}}) {
    const auto row_rf = analysis::rfilter_series(fx.dataset, fx.relays, proxy,
                                                 fx.start, fx.end, 3600);
    const auto col_rf = analysis::rfilter_series(log, fx.relays, proxy,
                                                 fx.start, fx.end, 3600);
    EXPECT_EQ(row_rf.rfilter, col_rf.rfilter);
    EXPECT_EQ(row_rf.has_traffic, col_rf.has_traffic);
    EXPECT_EQ(row_rf.censored_relay_count, col_rf.censored_relay_count);
  }
}

TEST(ColumnarAnalysis, ThreadCountIsInvisible) {
  TempDir dir{"threads"};
  AnalysisFixture fx{dir};
  analysis::ColumnarLog log1{colfmt::Reader::open(dir.file("log.col")), 1};
  analysis::ColumnarLog log8{colfmt::Reader::open(dir.file("log.col")), 8};

  const analysis::TopDomainsOptions top_options{
      proxy::TrafficClass::kCensored, 100, std::nullopt};
  expect_same_top(analysis::top_domains(log1, top_options, 1),
                  analysis::top_domains(log8, top_options, 8));

  const analysis::RcvOptions rcv_options{{fx.start, fx.end}, {300}};
  EXPECT_EQ(analysis::rcv_series(log1, rcv_options, 1).rcv,
            analysis::rcv_series(log8, rcv_options, 8).rcv);

  const auto cov1 = analysis::request_coverage(
      log1, {.bin = {3600}, .min_farm_bin_requests = 2}, 1);
  const auto cov8 = analysis::request_coverage(
      log8, {.bin = {3600}, .min_farm_bin_requests = 2}, 8);
  EXPECT_EQ(cov1.totals, cov8.totals);
  ASSERT_EQ(cov1.gaps.size(), cov8.gaps.size());

  // Cosine similarity is the float-sensitive one: the shared domain index
  // must come out in the same order at any thread count.
  EXPECT_EQ(analysis::censored_domain_similarity(log1, {{fx.start, fx.end}}, 1)
                .matrix,
            analysis::censored_domain_similarity(log8, {{fx.start, fx.end}}, 8)
                .matrix);
}

TEST(ColumnarAnalysis, CoverageToleratesEmissionOrderContainer) {
  // Both backends preserve emission order, which is only approximately
  // time-sorted; coverage computes true time bounds and bins
  // order-independently, so an out-of-order log matches on both.
  TempDir dir{"unordered"};
  std::vector<proxy::LogRecord> records;
  const std::int64_t base = util::to_unix_seconds({2011, 8, 1, 0, 0, 0});
  records.push_back(record_at(base + 100, "http://a.com/",
                              proxy::FilterResult::kObserved,
                              proxy::ExceptionId::kNone));
  records.push_back(record_at(base, "http://b.com/",
                              proxy::FilterResult::kObserved,
                              proxy::ExceptionId::kNone));
  write_container(dir.file("log.col"), records);
  analysis::ColumnarLog log{colfmt::Reader::open(dir.file("log.col"))};

  analysis::Dataset dataset;
  for (const auto& record : records) dataset.add(record);

  const auto from_col = analysis::request_coverage(log);
  const auto from_rows = analysis::request_coverage(dataset);
  EXPECT_EQ(from_rows.total_requests, from_col.total_requests);
  EXPECT_EQ(from_rows.active_bins, from_col.active_bins);
  EXPECT_EQ(from_rows.totals, from_col.totals);
  ASSERT_EQ(from_rows.days.size(), from_col.days.size());
  for (std::size_t i = 0; i < from_rows.days.size(); ++i) {
    EXPECT_EQ(from_rows.days[i].day_start, from_col.days[i].day_start);
    EXPECT_EQ(from_rows.days[i].requests, from_col.days[i].requests);
  }
}

}  // namespace
