// Streaming analysis (DESIGN.md §4.12): sketch guarantees, the spool
// tail's torn-tail/resume contract, open_source's typed refusals, and the
// sketch↔exact replay identities — with a window covering the whole log,
// the rolling report must match the exact analyzers byte for byte on both
// LogSource backends (row Dataset, columnar) and on a spool tail; sliding
// windows must stay within each sketch's stated bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/coverage.h"
#include "analysis/dataset.h"
#include "analysis/scan.h"
#include "analysis/sketch.h"
#include "analysis/stream.h"
#include "analysis/stream_report.h"
#include "analysis/temporal.h"
#include "analysis/top_domains.h"
#include "analysis/tor_analysis.h"
#include "colfmt/container.h"
#include "net/ipv4.h"
#include "policy/syria.h"
#include "proxy/log_io.h"
#include "tor/relay_directory.h"
#include "util/checksum.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
namespace fs = std::filesystem;

// --- sketch units -----------------------------------------------------------

TEST(SpaceSaving, ExactWhileKeysFit) {
  analysis::SpaceSaving sketch{8};
  for (const char* key : {"a", "b", "a", "c", "a", "b", "d", "a"})
    sketch.update(key);
  EXPECT_TRUE(sketch.exact());
  EXPECT_EQ(sketch.min_count(), 0u);
  EXPECT_EQ(sketch.total(), 8u);
  EXPECT_EQ(sketch.size(), 4u);

  const auto top = sketch.top(10);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 4u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, "b");
  EXPECT_EQ(top[1].count, 2u);
  // Ties rank key-ascending, like the exact top-domains analyzer.
  EXPECT_EQ(top[2].key, "c");
  EXPECT_EQ(top[3].key, "d");
}

TEST(SpaceSaving, SaturatedBoundsHold) {
  // One hot key plus 37 background keys through 8 counters: every tracked
  // count must bracket the truth within its own error field, and the hot
  // key (frequency far above total/capacity) is guaranteed tracked.
  analysis::SpaceSaving sketch{8};
  std::unordered_map<std::string, std::uint64_t> truth;
  for (std::size_t i = 0; i < 4000; ++i) {
    const std::string key =
        i % 3 == 0 ? "hot" : "k" + std::to_string(i % 37);
    sketch.update(key);
    ++truth[key];
  }
  EXPECT_FALSE(sketch.exact());
  EXPECT_GT(sketch.min_count(), 0u);
  bool hot_tracked = false;
  for (const auto& item : sketch.top(8)) {
    const std::uint64_t exact = truth.at(item.key);
    EXPECT_GE(item.count, exact) << item.key;
    EXPECT_LE(item.count, exact + item.error) << item.key;
    EXPECT_LE(item.error, sketch.min_count()) << item.key;
    hot_tracked |= item.key == "hot";
  }
  EXPECT_TRUE(hot_tracked);
}

TEST(SpaceSaving, Deterministic) {
  analysis::SpaceSaving a{4}, b{4};
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string((i * 7) % 23);
    a.update(key);
    b.update(key);
  }
  const auto ta = a.top(4), tb = b.top(4);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].count, tb[i].count);
    EXPECT_EQ(ta[i].error, tb[i].error);
  }
}

TEST(CountMin, NeverUndercountsAndBoundsOver) {
  analysis::CountMinSketch sketch{2048, 4, /*seed=*/1};
  std::unordered_map<std::string, std::uint64_t> truth;
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::string key = "label" + std::to_string(i % 37);
    sketch.update(key);
    ++truth[key];
  }
  EXPECT_EQ(sketch.total(), 5000u);
  for (const auto& [key, exact] : truth) {
    EXPECT_GE(sketch.estimate(key), exact) << key;
    EXPECT_LE(static_cast<double>(sketch.estimate(key)),
              static_cast<double>(exact) + sketch.error_bound())
        << key;
  }
  // ε = e/width, δ = e^-depth — the bounds the report prints.
  EXPECT_NEAR(sketch.epsilon(), std::exp(1.0) / 2048.0, 1e-12);
  EXPECT_NEAR(sketch.delta(), std::exp(-4.0), 1e-12);
  EXPECT_GT(sketch.fill(), 0.0);
  EXPECT_LT(sketch.fill(), 1.0);
}

TEST(Reservoir, ExactUnderCapacityAndDeterministic) {
  analysis::Reservoir<int> small{100, 7};
  for (int i = 0; i < 50; ++i) small.offer(i);
  ASSERT_EQ(small.items().size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(small.items()[i], i);

  analysis::Reservoir<int> a{16, 42}, b{16, 42};
  for (int i = 0; i < 5000; ++i) {
    a.offer(i);
    b.offer(i);
  }
  EXPECT_EQ(a.items(), b.items());
  EXPECT_EQ(a.seen(), 5000u);
  EXPECT_EQ(a.items().size(), 16u);

  analysis::Reservoir<int> zero{0, 1};
  zero.offer(9);
  EXPECT_EQ(zero.seen(), 1u);
  EXPECT_TRUE(zero.items().empty());
}

TEST(WindowRing, RefusesNonPositiveWidthAndZeroBins) {
  // watch --bin 0 and --window-bins 0 used to die of SIGFPE.
  struct Bin {
    std::uint64_t n = 0;
  };
  using Ring = analysis::WindowRing<Bin>;
  EXPECT_THROW((Ring{0, 4}), std::invalid_argument);
  EXPECT_THROW((Ring{-300, 4}), std::invalid_argument);
  EXPECT_THROW((Ring{300, 0}), std::invalid_argument);
  analysis::StreamReportOptions options;
  options.bin = {0};
  EXPECT_THROW(analysis::StreamAnalyzer{options}, std::invalid_argument);
  options.bin = {300};
  options.window_bins = 0;
  EXPECT_THROW(analysis::StreamAnalyzer{options}, std::invalid_argument);
}

TEST(WindowRing, AdvanceEvictLate) {
  struct Bin {
    std::uint64_t n = 0;
  };
  analysis::WindowRing<Bin> ring{10, 4};  // 4 bins of 10 s
  ASSERT_NE(ring.at(5), nullptr);
  ring.at(5)->n = 1;   // bin 0
  ring.at(25)->n = 2;  // bin 2 (bin 1 spanned but untouched)
  EXPECT_EQ(ring.active_bins(), 3u);
  EXPECT_EQ(ring.evicted_bins(), 0u);
  EXPECT_EQ(ring.window_start(), 0);
  EXPECT_EQ(ring.window_end(), 30);

  std::vector<std::pair<std::int64_t, std::uint64_t>> seen;
  ring.for_each([&](std::int64_t start, const Bin& bin) {
    seen.emplace_back(start, bin.n);
  });
  ASSERT_EQ(seen.size(), 3u);  // includes the untouched middle bin
  EXPECT_EQ(seen[0], (std::pair<std::int64_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(seen[1], (std::pair<std::int64_t, std::uint64_t>{10, 0}));
  EXPECT_EQ(seen[2], (std::pair<std::int64_t, std::uint64_t>{20, 2}));

  // Advancing to bin 5 evicts bins 0 and 1; the window becomes [20, 60).
  ring.at(55)->n = 3;
  EXPECT_EQ(ring.evicted_bins(), 2u);
  EXPECT_EQ(ring.window_start(), 20);
  EXPECT_EQ(ring.window_end(), 60);
  EXPECT_EQ(ring.active_bins(), 4u);

  // A record older than the retained window is dropped, not mis-binned.
  EXPECT_EQ(ring.at(15), nullptr);
  EXPECT_EQ(ring.late_drops(), 1u);
  // Bin 2's payload survived the advance.
  std::uint64_t first = 99;
  bool got = false;
  ring.for_each([&](std::int64_t, const Bin& bin) {
    if (!got) {
      first = bin.n;
      got = true;
    }
  });
  EXPECT_EQ(first, 2u);

  // A far jump recycles every slot; they must come back zeroed, with the
  // whole span counted as evicted.
  ring.at(1000)->n = 7;
  EXPECT_EQ(ring.active_bins(), 4u);
  EXPECT_EQ(ring.window_start(), 970);
  EXPECT_EQ(ring.window_end(), 1010);
  std::uint64_t sum = 0;
  std::size_t count = 0;
  ring.for_each([&](std::int64_t, const Bin& bin) {
    sum += bin.n;
    ++count;
  });
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(sum, 7u);
}

// --- workload ---------------------------------------------------------------

/// Deterministic log with strictly increasing timestamps, so every
/// backend presents records in the same (time) order — the property the
/// order-sensitive sketches (reservoir, saturated SpaceSaving) need for
/// cross-backend identity. Covers all seven proxies, the four traffic
/// classes, Tor relay endpoints on the Tor-censoring proxy, a forced
/// proxy-3 coverage gap, and keyword-laden censored URLs. Starts exactly
/// at a midnight so the stream's absolute bins line up with the exact
/// analyzers' range-anchored ones.
std::vector<proxy::LogRecord> stream_records(
    std::size_t n, const tor::RelayDirectory& relays) {
  static const char* kHosts[] = {"al-akhbar.com", "www.facebook.com",
                                 "skype.com",     "www.google.com",
                                 "metacafe.com",  "hidemyass.com"};
  static const char* kPaths[] = {"/", "/news/revolution", "/watch",
                                 "/wiki/damascus", "/home"};
  static const char* kQueries[] = {"", "q=proxy+server", "q=israel news",
                                   "ref=protest", ""};
  static const char* kCategories[] = {"News/Media", "Social Networking",
                                      "none", "-"};
  const std::int64_t base = util::to_unix_seconds({2011, 8, 1, 0, 0, 0});
  std::vector<proxy::LogRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    proxy::LogRecord record;
    record.time = base + static_cast<std::int64_t>(i) * 7;
    std::uint8_t proxy = static_cast<std::uint8_t>(i % 7);
    // Proxy 3 goes silent for a stretch of farm-active bins: a clean gap.
    if (i >= 1200 && i < 1500 && proxy == 3) proxy = 0;
    record.proxy_index = proxy;
    record.user_hash = 1000 + i % 50;
    record.method = "GET";
    record.user_agent = "Mozilla/5.0";
    record.categories = kCategories[i % 4];
    record.url.port = 80;
    if (proxy == 2 && i % 5 == 0) {
      // Tor relay endpoint on the Tor-censoring proxy; some denied.
      const auto& relay = relays.relays()[i % relays.size()];
      record.url.host = relay.address.to_string();
      record.url.port = relay.or_port;
      record.url.path = "/";
      record.dest_ip = relay.address;
      if (i % 10 == 0) {
        record.filter_result = proxy::FilterResult::kDenied;
        record.exception = proxy::ExceptionId::kPolicyDenied;
      }
    } else if (i % 11 == 0) {
      // Direct-IP request that is not a relay endpoint.
      const net::Ipv4Addr addr{198, 51, 100,
                               static_cast<std::uint8_t>(i % 250)};
      record.url.host = addr.to_string();
      record.url.path = "/";
      record.dest_ip = addr;
    } else {
      record.url.host = kHosts[i % 6];
      record.url.path = kPaths[i % 5];
      record.url.query = kQueries[i % 5];
      switch (i % 9) {
        case 0:
          record.filter_result = proxy::FilterResult::kDenied;
          record.exception = proxy::ExceptionId::kPolicyDenied;
          break;
        case 1:
          record.exception = proxy::ExceptionId::kTcpError;
          break;
        case 2:
          record.filter_result = proxy::FilterResult::kProxied;
          record.exception = proxy::ExceptionId::kPolicyRedirect;
          break;
        default:
          break;
      }
    }
    record.status =
        record.exception == proxy::ExceptionId::kNone ? 200 : 403;
    records.push_back(record);
  }
  return records;
}

struct Fixture {
  fs::path dir;
  tor::RelayDirectory relays = tor::RelayDirectory::synthesize(40, 99);
  std::vector<proxy::LogRecord> parsed;  // CSV round-tripped
  analysis::Dataset dataset;
  std::unique_ptr<analysis::ColumnarLog> columnar;
  std::int64_t start = 0;
  std::int64_t last = 0;

  Fixture() {
    dir = fs::path(::testing::TempDir()) / "syrwatch_stream_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto records = stream_records(4000, relays);
    start = records.front().time;
    last = records.back().time;
    {
      std::ofstream out{csv_path()};
      out << proxy::log_csv_header() << '\n';
      for (const auto& record : records)
        out << proxy::to_csv(record) << '\n';
    }
    std::ifstream in{csv_path()};
    parsed = proxy::read_log(in);
    for (const auto& record : parsed) dataset.add(record);
    {
      colfmt::WriterOptions options;
      options.block_rows = 512;
      colfmt::Writer writer{col_path(), options};
      for (const auto& record : parsed) writer.add(record);
      writer.finish();
    }
    columnar = std::make_unique<analysis::ColumnarLog>(
        colfmt::Reader::open(col_path()));
  }

  std::string csv_path() const { return (dir / "log.csv").string(); }
  std::string col_path() const { return (dir / "log.col").string(); }
};

const Fixture& fx() {
  static Fixture fixture;
  return fixture;
}

/// Replays a source through a fresh StreamAnalyzer via scan_increment and
/// returns the serialized rolling report.
std::string replay_report(const analysis::LogSource& source,
                          const analysis::StreamReportOptions& options) {
  analysis::StreamAnalyzer analyzer{options};
  const std::uint64_t hw = analysis::scan_increment(
      source, 0, [&](const analysis::Record& r) { analyzer.ingest(r); });
  EXPECT_EQ(hw, source.base_rows());
  return analysis::stream_report_json(analyzer.snapshot());
}

analysis::StreamReportOptions whole_log_options(
    const tor::RelayDirectory* relays) {
  analysis::StreamReportOptions options;
  options.bin = {300};
  options.window_bins = 288;  // 24 h: covers the whole ~7.8 h log
  options.min_farm_bin_requests = 5;
  options.relays = relays;
  return options;
}

analysis::StreamReportOptions sliding_options(
    const tor::RelayDirectory* relays) {
  auto options = whole_log_options(relays);
  options.window_bins = 12;  // 1 h: forces eviction
  options.top_capacity = 4;  // fewer than the distinct censored domains
  return options;
}

// --- cross-backend identity -------------------------------------------------

TEST(StreamIdentity, AllBackendsProduceIdenticalReports) {
  for (const bool sliding : {false, true}) {
    const auto options = sliding ? sliding_options(&fx().relays)
                                 : whole_log_options(&fx().relays);
    const std::string row =
        replay_report(analysis::LogSource{fx().dataset}, options);
    const std::string col =
        replay_report(analysis::LogSource{*fx().columnar}, options);
    EXPECT_EQ(row, col) << "sliding=" << sliding;
  }
}

TEST(StreamIdentity, SpoolTailMatchesInMemoryDataset) {
  analysis::StreamSource source{fx().csv_path()};
  ASSERT_EQ(source.poll(), fx().parsed.size());
  EXPECT_EQ(replay_report(source.source(), whole_log_options(&fx().relays)),
            replay_report(analysis::LogSource{fx().dataset},
                          whole_log_options(&fx().relays)));
}

// --- whole-log-window exactness ---------------------------------------------

const analysis::RollingReport& rolled() {
  static const analysis::RollingReport report = [] {
    analysis::StreamAnalyzer analyzer{whole_log_options(&fx().relays)};
    analysis::scan_increment(
        analysis::LogSource{fx().dataset}, 0,
        [&](const analysis::Record& r) { analyzer.ingest(r); });
    return analyzer.snapshot();
  }();
  return report;
}

TEST(WholeLogExact, ClassTotals) {
  std::array<std::uint64_t, 4> expected{};
  for (const auto& record : fx().parsed)
    ++expected[static_cast<std::size_t>(proxy::classify(record))];
  EXPECT_EQ(rolled().class_totals, expected);
  EXPECT_EQ(rolled().records, fx().parsed.size());
  for (const std::uint64_t count : expected) EXPECT_GT(count, 0u);
}

TEST(WholeLogExact, TopCensoredDomainsMatchExactAnalyzer) {
  const auto exact = analysis::top_domains(
      analysis::LogSource{fx().dataset},
      {.cls = proxy::TrafficClass::kCensored, .k = 10});
  EXPECT_TRUE(rolled().domains_exact);
  EXPECT_EQ(rolled().domains_error_bound, 0u);
  ASSERT_EQ(rolled().top_censored_domains.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(rolled().top_censored_domains[i].key, exact[i].domain) << i;
    EXPECT_EQ(rolled().top_censored_domains[i].count, exact[i].count) << i;
    EXPECT_EQ(rolled().top_censored_domains[i].error, 0u) << i;
  }
}

TEST(WholeLogExact, TrafficAndRcvSeriesMatchExactAnalyzers) {
  const analysis::TimeRange range{fx().start, fx().last + 1};
  const auto exact = analysis::traffic_time_series(
      analysis::LogSource{fx().dataset}, {range, {300}});
  const auto rcv = analysis::rcv_series(analysis::LogSource{fx().dataset},
                                        {range, {300}});
  EXPECT_EQ(rolled().window_origin, fx().start);
  EXPECT_EQ(rolled().bin_seconds, 300);
  EXPECT_EQ(rolled().window_evicted_bins, 0u);
  EXPECT_EQ(rolled().window_late_drops, 0u);
  EXPECT_EQ(rolled().censored_series, exact.censored.counts());
  EXPECT_EQ(rolled().allowed_series, exact.allowed.counts());
  ASSERT_EQ(rolled().rcv.size(), rcv.rcv.size());
  for (std::size_t i = 0; i < rcv.rcv.size(); ++i)
    EXPECT_EQ(rolled().rcv[i], rcv.rcv[i]) << i;  // bit-exact, not NEAR
}

TEST(WholeLogExact, CoverageMatchesExactAnalyzer) {
  const auto exact = analysis::request_coverage(
      analysis::LogSource{fx().dataset},
      {.bin = {300}, .min_farm_bin_requests = 5});
  EXPECT_EQ(rolled().coverage_active_bins, exact.active_bins);
  EXPECT_EQ(rolled().covered_bins, exact.covered_bins);
  ASSERT_EQ(rolled().gaps.size(), exact.gaps.size());
  EXPECT_FALSE(exact.gaps.empty());  // the proxy-3 outage must surface
  for (std::size_t i = 0; i < exact.gaps.size(); ++i) {
    EXPECT_EQ(rolled().gaps[i].proxy_index, exact.gaps[i].proxy_index);
    EXPECT_EQ(rolled().gaps[i].start, exact.gaps[i].start);
    EXPECT_EQ(rolled().gaps[i].end, exact.gaps[i].end);
    EXPECT_EQ(rolled().gaps[i].farm_requests, exact.gaps[i].farm_requests);
  }
}

TEST(WholeLogExact, RfilterMatchesExactAnalyzer) {
  const auto exact = analysis::rfilter_series(
      analysis::LogSource{fx().dataset}, fx().relays,
      policy::kTorCensorProxy, fx().start, fx().last + 1, 300);
  EXPECT_EQ(rolled().censored_relay_count, exact.censored_relay_count);
  EXPECT_GT(exact.censored_relay_count, 0u);

  // The stream's Rfilter ring spans only the scoped-traffic bins; locate
  // that span in the exact series and compare the overlap bin for bin.
  std::int64_t first_scoped = 0, last_scoped = 0;
  bool any = false;
  for (const auto& record : fx().parsed) {
    if (record.proxy_index != policy::kTorCensorProxy) continue;
    const auto ip = net::Ipv4Addr::parse(record.url.host);
    if (!ip || !fx().relays.contains(*ip, record.url.port)) continue;
    if (!any || record.time < first_scoped) first_scoped = record.time;
    if (!any || record.time > last_scoped) last_scoped = record.time;
    any = true;
  }
  ASSERT_TRUE(any);
  const auto offset =
      static_cast<std::size_t>((first_scoped - fx().start) / 300);
  const auto bins = static_cast<std::size_t>(
      (last_scoped - fx().start) / 300 - (first_scoped - fx().start) / 300 +
      1);
  ASSERT_EQ(rolled().rfilter.size(), bins);
  ASSERT_EQ(rolled().rfilter_has_traffic.size(), bins);
  for (std::size_t i = 0; i < bins; ++i) {
    EXPECT_EQ(rolled().rfilter[i], exact.rfilter[offset + i]) << i;
    EXPECT_EQ(rolled().rfilter_has_traffic[i] != 0,
              static_cast<bool>(exact.has_traffic[offset + i]))
        << i;
  }
}

TEST(WholeLogExact, CategoryEstimatesWithinStatedBound) {
  // Four labels through a 2048×4 sketch: the estimates must never
  // under-count and must respect the printed ε·N bound; with this
  // geometry they are in fact collision-free and exact.
  std::map<std::string, std::uint64_t> truth;
  std::uint64_t censored_total = 0;
  for (const auto& record : fx().parsed) {
    if (proxy::classify(record) != proxy::TrafficClass::kCensored) continue;
    ++truth[record.categories];
    ++censored_total;
  }
  EXPECT_EQ(rolled().category_total, censored_total);
  ASSERT_EQ(rolled().categories.size(), truth.size());
  for (const auto& estimate : rolled().categories) {
    const std::uint64_t exact = truth.at(estimate.label);
    EXPECT_GE(estimate.estimate, exact) << estimate.label;
    EXPECT_LE(static_cast<double>(estimate.estimate),
              static_cast<double>(exact) + rolled().category_error)
        << estimate.label;
    EXPECT_EQ(estimate.estimate, exact) << estimate.label;
  }
}

TEST(WholeLogExact, ReservoirSampleShape) {
  EXPECT_EQ(rolled().sample_seen, fx().parsed.size());
  EXPECT_EQ(rolled().sample_size, 1024u);
  EXPECT_GT(rolled().sample_censored, 0u);
  EXPECT_LT(rolled().sample_censored, rolled().sample_size);
  EXPECT_GE(rolled().sample_censored_share.lo, 0.0);
  EXPECT_LE(rolled().sample_censored_share.hi, 1.0);
  EXPECT_LT(rolled().sample_censored_share.lo,
            rolled().sample_censored_share.hi);
}

// --- sliding-window bounds --------------------------------------------------

TEST(SlidingWindow, SeriesExactInsideRetainedWindow) {
  analysis::StreamAnalyzer analyzer{sliding_options(&fx().relays)};
  analysis::scan_increment(
      analysis::LogSource{fx().dataset}, 0,
      [&](const analysis::Record& r) { analyzer.ingest(r); });
  const auto report = analyzer.snapshot();

  ASSERT_EQ(report.total_series.size(), 12u);
  EXPECT_GT(report.window_evicted_bins, 0u);
  // Within the retained window the series are exact: recompute them from
  // the raw records over [window_origin, window_origin + 12*300).
  const std::int64_t lo = report.window_origin;
  const std::int64_t hi = lo + 12 * 300;
  std::vector<std::uint64_t> censored(12, 0), total(12, 0);
  for (const auto& record : fx().parsed) {
    if (record.time < lo || record.time >= hi) continue;
    const auto bin = static_cast<std::size_t>((record.time - lo) / 300);
    ++total[bin];
    if (proxy::classify(record) == proxy::TrafficClass::kCensored)
      ++censored[bin];
  }
  EXPECT_EQ(report.censored_series, censored);
  EXPECT_EQ(report.total_series, total);
}

TEST(SlidingWindow, SaturatedTopDomainsWithinStatedBounds) {
  analysis::StreamAnalyzer analyzer{sliding_options(&fx().relays)};
  analysis::scan_increment(
      analysis::LogSource{fx().dataset}, 0,
      [&](const analysis::Record& r) { analyzer.ingest(r); });
  const auto report = analyzer.snapshot();

  EXPECT_FALSE(report.domains_exact);
  EXPECT_GT(report.domains_error_bound, 0u);

  // The top tables are unwindowed — only capacity makes them approximate —
  // so the truth is the whole log's censored-domain counts: every reported
  // count must bracket its true count within the per-item error.
  std::unordered_map<std::string, std::uint64_t> truth;
  analysis::scan_increment(
      analysis::LogSource{fx().dataset}, 0, [&](const analysis::Record& r) {
        if (r.cls == proxy::TrafficClass::kCensored)
          ++truth[std::string(r.domain)];
      });
  EXPECT_GT(truth.size(), 4u);  // more keys than counters: saturation real
  ASSERT_FALSE(report.top_censored_domains.empty());
  bool heaviest_tracked = false;
  std::string heaviest;
  std::uint64_t heaviest_count = 0;
  for (const auto& [domain, count] : truth)
    if (count > heaviest_count) {
      heaviest = domain;
      heaviest_count = count;
    }
  for (const auto& entry : report.top_censored_domains) {
    const auto it = truth.find(entry.key);
    ASSERT_NE(it, truth.end()) << entry.key;
    EXPECT_GE(entry.count, it->second) << entry.key;
    EXPECT_LE(entry.count, it->second + entry.error) << entry.key;
    EXPECT_LE(entry.error, report.domains_error_bound) << entry.key;
    heaviest_tracked |= entry.key == heaviest;
  }
  // The heaviest key's frequency clears total/capacity, so SpaceSaving
  // guarantees it survived eviction.
  EXPECT_TRUE(heaviest_tracked) << heaviest;
}

// --- scan_increment ---------------------------------------------------------

TEST(ScanIncrement, DeliversEachBaseRowOnce) {
  const analysis::LogSource source{fx().dataset};
  std::vector<std::uint64_t> ordinals;
  const std::uint64_t hw = analysis::scan_increment(
      source, 0,
      [&](const analysis::Record& r) { ordinals.push_back(r.ordinal); });
  EXPECT_EQ(hw, source.base_rows());
  ASSERT_EQ(ordinals.size(), source.base_rows());
  for (std::size_t i = 0; i < ordinals.size(); ++i)
    ASSERT_EQ(ordinals[i], i);
  // Nothing new: the same high-water mark comes back, nothing delivered.
  std::size_t extra = 0;
  EXPECT_EQ(analysis::scan_increment(
                source, hw, [&](const analysis::Record&) { ++extra; }),
            hw);
  EXPECT_EQ(extra, 0u);
}

TEST(ScanIncrement, ResumesMidSource) {
  const analysis::LogSource source{*fx().columnar};
  const std::uint64_t half = source.base_rows() / 2;
  std::vector<std::uint64_t> tail;
  const std::uint64_t hw = analysis::scan_increment(
      source, half,
      [&](const analysis::Record& r) { tail.push_back(r.ordinal); });
  EXPECT_EQ(hw, source.base_rows());
  ASSERT_EQ(tail.size(), source.base_rows() - half);
  EXPECT_EQ(tail.front(), half);
  EXPECT_EQ(tail.back(), source.base_rows() - 1);
}

// --- spool tail -------------------------------------------------------------

struct TailFixture : ::testing::Test {
  fs::path dir;
  void SetUp() override {
    dir = fs::path(::testing::TempDir()) / "syrwatch_tail_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string spool() const { return (dir / "log_spool.csv").string(); }
  void append(const std::string& bytes) const {
    std::ofstream out{spool(), std::ios::app | std::ios::binary};
    out << bytes;
  }
};

TEST_F(TailFixture, MissingFileDeliversNothing) {
  analysis::SpoolTail tail{spool()};
  std::size_t delivered = 0;
  EXPECT_EQ(tail.poll([&](const proxy::LogRecordView&) { ++delivered; }), 0u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(tail.offset(), 0u);
}

TEST_F(TailFixture, TornTailStaysPendingUntilCompleted) {
  const auto records = stream_records(3, fx().relays);
  const std::string header = proxy::log_csv_header() + "\n";
  const std::string line0 = proxy::to_csv(records[0]) + "\n";
  const std::string line1 = proxy::to_csv(records[1]) + "\n";
  const std::string line2 = proxy::to_csv(records[2]) + "\n";
  append(header + line0 + line1 + line2.substr(0, 10));

  analysis::SpoolTail tail{spool()};
  std::vector<proxy::LogRecord> out;
  const auto collect = [&](const proxy::LogRecordView& r) {
    proxy::assign(out.emplace_back(), r);
  };
  EXPECT_EQ(tail.poll(collect), 2u);
  EXPECT_EQ(tail.pending_bytes(), 10u);
  EXPECT_EQ(tail.offset(), header.size() + line0.size() + line1.size());

  // Completing the torn line delivers exactly the third record.
  append(line2.substr(10));
  EXPECT_EQ(tail.poll(collect), 1u);
  EXPECT_EQ(tail.pending_bytes(), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(proxy::to_csv(out[2]), proxy::to_csv(records[2]));
}

TEST_F(TailFixture, MalformedLinesSkippedAndTallied) {
  const auto records = stream_records(2, fx().relays);
  append(proxy::log_csv_header() + "\n" + proxy::to_csv(records[0]) +
         "\nthis is not a record\n" + proxy::to_csv(records[1]) + "\n");
  analysis::SpoolTail tail{spool()};
  std::size_t delivered = 0;
  tail.poll([&](const proxy::LogRecordView&) { ++delivered; });
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(tail.stats().skipped_total(), 1u);
}

TEST_F(TailFixture, ResumeMidSpoolIsByteIdenticalToColdTail) {
  const auto records = stream_records(200, fx().relays);
  std::string prefix = proxy::log_csv_header() + "\n";
  for (std::size_t i = 0; i < 120; ++i)
    prefix += proxy::to_csv(records[i]) + "\n";
  append(prefix);

  // First process: consumes the prefix, remembers its offset.
  analysis::StreamSource first{spool()};
  ASSERT_EQ(first.poll(), 120u);
  const std::uint64_t offset = first.tail().offset();
  EXPECT_EQ(offset, prefix.size());

  // The run appends more, including a torn write a later append heals.
  std::string rest;
  for (std::size_t i = 120; i < 200; ++i)
    rest += proxy::to_csv(records[i]) + "\n";
  append(rest.substr(0, rest.size() / 2));
  append(rest.substr(rest.size() / 2));

  // A second process resumes at the recorded offset; a cold tail reads
  // the whole file. first + resumed must reproduce the cold read's report
  // byte for byte — the resume contract.
  analysis::StreamSource resumed{spool()};
  resumed.tail().resume_at(offset);
  ASSERT_EQ(resumed.poll(), 80u);

  analysis::StreamSource cold{spool()};
  ASSERT_EQ(cold.poll(), 200u);

  const auto options = whole_log_options(nullptr);
  analysis::StreamAnalyzer glued{options};
  const std::uint64_t hw = analysis::scan_increment(
      first.source(), 0,
      [&](const analysis::Record& r) { glued.ingest(r); });
  EXPECT_EQ(hw, 120u);
  analysis::scan_increment(
      resumed.source(), 0,
      [&](const analysis::Record& r) { glued.ingest(r); });

  analysis::StreamAnalyzer cold_analyzer{options};
  analysis::scan_increment(
      cold.source(), 0,
      [&](const analysis::Record& r) { cold_analyzer.ingest(r); });
  EXPECT_EQ(analysis::stream_report_json(glued.snapshot()),
            analysis::stream_report_json(cold_analyzer.snapshot()));
}

TEST_F(TailFixture, ResumeAfterFirstPollThrows) {
  append(proxy::log_csv_header() + "\n");
  analysis::SpoolTail tail{spool()};
  tail.poll([](const proxy::LogRecordView&) {});
  EXPECT_THROW(tail.resume_at(0), std::logic_error);
}

TEST_F(TailFixture, IncrementalIngestMatchesOneShot) {
  const auto records = stream_records(300, fx().relays);
  append(proxy::log_csv_header() + "\n");

  analysis::StreamSource live{spool()};
  analysis::StreamAnalyzer incremental{whole_log_options(nullptr)};
  std::uint64_t hw = 0;
  for (std::size_t chunk = 0; chunk < 3; ++chunk) {
    std::string bytes;
    for (std::size_t i = chunk * 100; i < (chunk + 1) * 100; ++i)
      bytes += proxy::to_csv(records[i]) + "\n";
    append(bytes);
    live.poll();
    hw = analysis::scan_increment(
        live.source(), hw,
        [&](const analysis::Record& r) { incremental.ingest(r); });
  }
  EXPECT_EQ(hw, 300u);

  analysis::StreamSource one_shot{spool()};
  one_shot.poll();
  analysis::StreamAnalyzer whole{whole_log_options(nullptr)};
  analysis::scan_increment(
      one_shot.source(), 0,
      [&](const analysis::Record& r) { whole.ingest(r); });
  EXPECT_EQ(analysis::stream_report_json(incremental.snapshot()),
            analysis::stream_report_json(whole.snapshot()));
}

// --- open_source ------------------------------------------------------------

struct OpenFixture : TailFixture {
  std::string file(const std::string& name,
                   const std::string& bytes) const {
    const std::string path = (dir / name).string();
    std::ofstream out{path, std::ios::binary};
    out << bytes;
    return path;
  }

  static analysis::SourceOpenErrorCode code_of(
      const std::string& path, const analysis::SourceOptions& options = {}) {
    try {
      (void)analysis::open_source(path, options);
    } catch (const analysis::SourceOpenError& error) {
      return error.code();
    }
    ADD_FAILURE() << path << ": expected SourceOpenError";
    return analysis::SourceOpenErrorCode::kNotFound;
  }
};

TEST_F(OpenFixture, OpensBothFormats) {
  const auto csv = analysis::open_source(fx().csv_path());
  EXPECT_FALSE(csv.is_columnar());
  EXPECT_EQ(csv.rows(), fx().parsed.size());
  const auto col = analysis::open_source(fx().col_path());
  EXPECT_TRUE(col.is_columnar());
  EXPECT_EQ(col.rows(), fx().parsed.size());
}

TEST_F(OpenFixture, NotFound) {
  EXPECT_EQ(code_of((dir / "absent.csv").string()),
            analysis::SourceOpenErrorCode::kNotFound);
}

TEST_F(OpenFixture, BadMagic) {
  const auto junk = file("junk.csv", "definitely,not,the,header\nx,y\n");
  EXPECT_EQ(code_of(junk), analysis::SourceOpenErrorCode::kBadMagic);
  // A CSV file force-opened as a container is a magic failure too.
  EXPECT_EQ(code_of(fx().csv_path(), {.format = "col"}),
            analysis::SourceOpenErrorCode::kBadMagic);
  EXPECT_EQ(code_of(file("empty.csv", "")),
            analysis::SourceOpenErrorCode::kBadMagic);
}

TEST_F(OpenFixture, TornCsvTailStrictRefusesLenientRecovers) {
  const auto records = stream_records(3, fx().relays);
  const auto path =
      file("torn.csv", proxy::log_csv_header() + "\n" +
                           proxy::to_csv(records[0]) + "\n" +
                           proxy::to_csv(records[1]).substr(0, 12));
  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kTornTail);
  const auto opened = analysis::open_source(path, {.lenient = true});
  EXPECT_EQ(opened.rows(), 1u);
  EXPECT_TRUE(opened.read_stats().truncated_tail);
}

TEST_F(OpenFixture, MalformedRecordStrict) {
  const auto records = stream_records(1, fx().relays);
  const auto path = file("bad.csv", proxy::log_csv_header() + "\n" +
                                        proxy::to_csv(records[0]) + "\n" +
                                        "completely broken row\n");
  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kMalformed);
}

/// Every row of `path` opened with `options`, rendered back as csv lines.
std::string rows_of(const std::string& path,
                    const analysis::SourceOptions& options) {
  const analysis::OpenedSource opened = analysis::open_source(path, options);
  const analysis::LogSource source = opened.source();
  std::string text;
  for (std::size_t p = 0; p < source.partitions(); ++p)
    source.scan_partition(p, [&](const analysis::Record& r) {
      proxy::LogRecordView row;
      row.time = r.time;
      row.proxy_index = r.proxy_index;
      row.user_hash = r.user_hash;
      row.user_agent = r.agent;
      row.method = r.method;
      row.scheme = r.scheme;
      row.host = r.host;
      row.port = r.port;
      row.path = r.path;
      row.query = r.query;
      row.categories = r.categories;
      row.filter_result = r.result;
      row.exception = r.exception;
      row.status = r.status;
      if (r.has_dest_ip) row.dest_ip = net::Ipv4Addr{r.dest_ip};
      proxy::append_csv(row, text);
    });
  return text;
}

TEST_F(OpenFixture, CrlfAndBlankLinesOpenLikeTheLfOriginal) {
  // Every csv reader shares one line framing: a CRLF log and a log with
  // blank lines (here, one at the end) hold the same rows as the LF
  // original, for the strict open as much as for the lenient one.
  std::ifstream in{fx().csv_path(), std::ios::binary};
  const std::string lf{std::istreambuf_iterator<char>{in}, {}};
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf.push_back('\r');
    crlf.push_back(c);
  }
  const auto crlf_path = file("crlf.csv", crlf);
  const auto blank_path = file("blank.csv", lf + "\n");
  for (const bool lenient : {false, true}) {
    const std::string want =
        rows_of(fx().csv_path(), {.lenient = lenient});
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(rows_of(crlf_path, {.lenient = lenient}), want) << lenient;
    EXPECT_EQ(rows_of(blank_path, {.lenient = lenient}), want) << lenient;
  }
  const auto blank = analysis::open_source(blank_path, {.lenient = true});
  EXPECT_EQ(blank.read_stats().empty_lines, 1u);
  EXPECT_EQ(blank.read_stats().skipped_total(), 0u);
}

TEST_F(OpenFixture, UnsupportedContainerVersion) {
  // Copy the container and bump the footer's version word (offset 40 of
  // the 60-byte footer); the trailing magic stays intact, so the typed
  // probe must report "newer writer", not generic corruption.
  const std::string path = (dir / "future.col").string();
  fs::copy_file(fx().col_path(), path);
  std::fstream patch{path, std::ios::in | std::ios::out | std::ios::binary};
  patch.seekp(static_cast<std::streamoff>(fs::file_size(path)) -
              static_cast<std::streamoff>(colfmt::kFooterBytes) + 40);
  const char version99[8] = {99, 0, 0, 0, 0, 0, 0, 0};
  patch.write(version99, 8);
  patch.close();
  EXPECT_EQ(code_of(path),
            analysis::SourceOpenErrorCode::kUnsupportedVersion);
}

TEST_F(OpenFixture, TornContainerTailStrictRefusesLenientRecovers) {
  // Truncate a container mid-file: strict open refuses with kTornTail
  // (the intact leading blocks survive a lenient probe), lenient opens
  // the recoverable prefix.
  const std::string path = (dir / "torn.col").string();
  fs::copy_file(fx().col_path(), path);
  fs::resize_file(path, fs::file_size(path) * 2 / 3);
  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kTornTail);
  const auto opened = analysis::open_source(path, {.lenient = true});
  EXPECT_TRUE(opened.is_columnar());
  EXPECT_GT(opened.rows(), 0u);
  EXPECT_LT(opened.rows(), fx().parsed.size());
  EXPECT_TRUE(opened.recovery().truncated_tail);
}

/// Offset of page `page`'s {u32 size, u32 crc32} header in the block that
/// starts at `block`: past the 16-byte block header and every earlier page.
std::uint64_t page_header(const std::string& bytes, std::uint64_t block,
                          std::size_t page) {
  const auto u32_at = [&](std::uint64_t at) {
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
      value = (value << 8) | static_cast<std::uint8_t>(bytes[at + i]);
    return value;
  };
  std::uint64_t at = block + 16;
  for (std::size_t p = 0; p < page; ++p) at += 8 + u32_at(at);
  return at;
}

/// Copies `source` to `path` with byte `index` of one page payload of block
/// `block` replaced by `value`. With `fix_crc` the page CRC is recomputed,
/// so only the decoder's value checks can catch the change.
void patch_page(const std::string& source, const std::string& path,
                std::size_t block, std::size_t page, std::size_t index,
                char value, bool fix_crc) {
  const std::uint64_t offset =
      colfmt::Reader::open(source).blocks().at(block).offset;
  std::ifstream in{source, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{in},
                    std::istreambuf_iterator<char>{}};
  const std::uint64_t header = page_header(bytes, offset, page);
  bytes[header + 8 + index] = value;
  if (fix_crc) {
    const std::uint32_t size =
        static_cast<std::uint32_t>(page_header(bytes, offset, page + 1) -
                                   header - 8);
    std::uint32_t crc = util::crc32_of(std::string_view{bytes}.substr(
        static_cast<std::size_t>(header + 8), size));
    for (int i = 0; i < 4; ++i, crc >>= 8)
      bytes[header + 4 + i] = static_cast<char>(crc & 0xFF);
  }
  std::ofstream{path, std::ios::binary} << bytes;
}

/// The SourceOpenError open_source throws for `path`.
std::string refusal_of(const std::string& path,
                       const analysis::SourceOptions& options = {}) {
  try {
    (void)analysis::open_source(path, options);
  } catch (const analysis::SourceOpenError& error) {
    return error.what();
  }
  ADD_FAILURE() << path << ": expected SourceOpenError";
  return {};
}

TEST_F(OpenFixture, DictPageFlipMidFileIsMalformed) {
  // Footer and index intact: the damage is inside an indexed block, not a
  // torn tail, and the refusal names the block and the page.
  const std::string path = (dir / "dict-flip.col").string();
  patch_page(fx().col_path(), path, 5, colfmt::kPageDict, 3, '\x7F',
             /*fix_crc=*/false);
  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kMalformed);
  const std::string what = refusal_of(path);
  EXPECT_NE(what.find("block 5"), std::string::npos) << what;
  EXPECT_NE(what.find("(dict)"), std::string::npos) << what;
}

TEST_F(OpenFixture, ColumnPageFlipFailsStrictOpen) {
  // Strict open decodes every block, so a column page fails its CRC at
  // open, not at the first scan.
  const std::string path = (dir / "time-flip.col").string();
  patch_page(fx().col_path(), path, 5, colfmt::kPageTime, 3, '\x7F',
             /*fix_crc=*/false);
  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kMalformed);
  const std::string what = refusal_of(path);
  EXPECT_NE(what.find("block 5"), std::string::npos) << what;
  EXPECT_NE(what.find("(time)"), std::string::npos) << what;
}

TEST_F(OpenFixture, TruncationInsideLastBlockIsTornTail) {
  const std::string path = (dir / "torn-last.col").string();
  fs::copy_file(fx().col_path(), path);
  const auto blocks = colfmt::Reader::open(path).blocks();
  fs::resize_file(path, blocks.back().offset + 40);
  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kTornTail);
  const auto opened = analysis::open_source(path, {.lenient = true});
  EXPECT_EQ(opened.rows(), blocks.back().row_base);
}

TEST_F(OpenFixture, OutOfRangeValueIsTypedOnBothPaths) {
  // Page CRCs valid, values not: an enum byte past kDenied, and a host id
  // the dictionary never defined. Both opens refuse with kMalformed
  // instead of letting the decoder's runtime_error escape.
  const std::string tiny = (dir / "tiny.col").string();
  {
    colfmt::Writer writer{tiny};
    for (const auto& record : stream_records(3, fx().relays))
      writer.add(record);
    writer.finish();
  }
  ASSERT_LT(colfmt::Reader::open(tiny).dict_size(), 0x7Fu);
  for (const auto page : {colfmt::kPageFilterResult, colfmt::kPageHost}) {
    const std::string path = (dir / "bad-value.col").string();
    patch_page(tiny, path, 0, page, 0, '\x7F', /*fix_crc=*/true);
    EXPECT_TRUE(colfmt::verify_file(path).ok) << colfmt::page_name(page);
    EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kMalformed)
        << colfmt::page_name(page);
    EXPECT_EQ(code_of(path, {.lenient = true}),
              analysis::SourceOpenErrorCode::kMalformed)
        << colfmt::page_name(page);
    const std::string what = refusal_of(path, {.lenient = true});
    EXPECT_NE(what.find(std::string(colfmt::page_name(page)) + " page"),
              std::string::npos)
        << what;
  }
}

/// A container's bytes, for forging little-endian fields.
struct ContainerBytes {
  std::string bytes;

  explicit ContainerBytes(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{in},
                 std::istreambuf_iterator<char>{});
  }
  std::size_t footer() const { return bytes.size() - colfmt::kFooterBytes; }
  std::uint64_t get(std::size_t at, int width) const {
    std::uint64_t value = 0;
    for (int i = width - 1; i >= 0; --i)
      value = (value << 8) | static_cast<std::uint8_t>(bytes[at + i]);
    return value;
  }
  void put(std::size_t at, std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i, value >>= 8)
      bytes[at + i] = static_cast<char>(value & 0xFF);
  }
  std::uint32_t crc(std::size_t at, std::size_t size) const {
    return util::crc32_of(std::string_view{bytes}.substr(at, size));
  }
  /// Re-signs the footer after a field of it changed.
  void seal_footer() { put(footer() + 48, crc(footer(), 48), 4); }
  void write(const std::string& path) const {
    std::ofstream{path, std::ios::binary} << bytes;
  }
};

TEST_F(OpenFixture, ForgedRowCountIsMalformedOnBothPaths) {
  // Block 0 claims ~4G rows in its header, its index entry and the footer
  // total, every CRC recomputed, so verify calls the file intact. Decode
  // refuses the block by its raw pages' length before it sizes a column
  // by that count (~34 GB for the time column alone).
  const auto reader = colfmt::Reader::open(fx().col_path());
  const std::uint64_t forged = 0xFFFFFFF0u;
  ContainerBytes file{fx().col_path()};
  const std::size_t block = reader.blocks().front().offset;
  const std::size_t index = file.get(file.footer(), 8);
  file.put(block + 4, forged, 4);
  file.put(block + 12, file.crc(block, 12), 4);
  file.put(index + 8, forged, 4);
  file.put(file.footer() + 32, file.crc(index, reader.block_count() * 16), 8);
  file.put(file.footer() + 16,
           reader.rows() - reader.blocks().front().rows + forged, 8);
  file.seal_footer();
  const std::string path = (dir / "forged-rows.col").string();
  file.write(path);

  EXPECT_TRUE(colfmt::verify_file(path).ok);
  for (const bool lenient : {false, true}) {
    EXPECT_EQ(code_of(path, {.lenient = lenient}),
              analysis::SourceOpenErrorCode::kMalformed)
        << "lenient " << lenient;
    const std::string what = refusal_of(path, {.lenient = lenient});
    EXPECT_NE(what.find("block 0"), std::string::npos) << what;
    EXPECT_NE(what.find("wrong row count"), std::string::npos) << what;
  }
}

TEST_F(OpenFixture, ForgedBlockCountIsAnUnreadableFooter) {
  // 2^60 + n blocks: times the 16-byte index entry it wraps to the true
  // index size, so only a bound by the file keeps it from being reserved.
  // The footer is then unreadable: a torn tail, which lenient open
  // recovers whole by scanning the blocks.
  const auto reader = colfmt::Reader::open(fx().col_path());
  ContainerBytes file{fx().col_path()};
  file.put(file.footer() + 8, (std::uint64_t{1} << 60) + reader.block_count(),
           8);
  file.seal_footer();
  const std::string path = (dir / "forged-blocks.col").string();
  file.write(path);

  EXPECT_EQ(code_of(path), analysis::SourceOpenErrorCode::kTornTail);
  const auto opened = analysis::open_source(path, {.lenient = true});
  EXPECT_EQ(opened.rows(), reader.rows());
  EXPECT_TRUE(opened.recovery().truncated_tail);
}

TEST_F(OpenFixture, InvalidFormatOption) {
  EXPECT_THROW((void)analysis::open_source(fx().csv_path(),
                                           {.format = "xml"}),
               std::invalid_argument);
}

}  // namespace
