// Scan-layer identity: every analyzer, run against the same log loaded as
// row CSV (Dataset) and as a SYRCOL1 container (ColumnarLog), at 1 and 8
// threads, must produce byte-identical serialized output, equal to the
// checked-in tests/golden/scan_identity.txt. This is the contract
// DESIGN.md §4.11 promises: backend and thread count are invisible, and
// the one adapter both stores share is pinned to known output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/agents.h"
#include "analysis/anonymizer.h"
#include "analysis/bittorrent.h"
#include "analysis/category_dist.h"
#include "analysis/columnar.h"
#include "analysis/coverage.h"
#include "analysis/dataset.h"
#include "analysis/domain_dist.h"
#include "analysis/google_cache.h"
#include "analysis/https_audit.h"
#include "analysis/impact.h"
#include "analysis/ip_censorship.h"
#include "analysis/osn.h"
#include "analysis/port_dist.h"
#include "analysis/proxy_compare.h"
#include "analysis/redirects.h"
#include "analysis/sampling.h"
#include "analysis/scan.h"
#include "analysis/social_plugins.h"
#include "analysis/string_discovery.h"
#include "analysis/temporal.h"
#include "analysis/top_domains.h"
#include "analysis/tor_analysis.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "analysis/weather.h"
#include "category/categorizer.h"
#include "colfmt/container.h"
#include "geo/geoip.h"
#include "policy/custom_category.h"
#include "policy/engine.h"
#include "proxy/log_io.h"
#include "tor/relay_directory.h"
#include "util/simtime.h"
#include "workload/torrents.h"

namespace {

using namespace syrwatch;
namespace fs = std::filesystem;

// --- workload ---------------------------------------------------------------

/// Deterministic, time-ordered log that gives every analyzer something to
/// chew on: all seven proxies, the four traffic classes, Tor relay
/// endpoints, IP-literal hosts inside and outside the GeoIP registry,
/// Google cache fetches, BitTorrent announces, facebook plugin paths with
/// "Blocked sites" custom-category labels, anonymizer hosts, keyword-laden
/// queries, and redirects with same-user follow-ups inside the window.
std::vector<proxy::LogRecord> varied_records(
    std::size_t n, const tor::RelayDirectory& relays,
    const workload::TorrentRegistry& torrents) {
  static const char* kHosts[] = {
      "www.facebook.com", "al-akhbar.com",  "www.google.com",
      "skype.com",        "hidemyass.com",  "static.ak.fbcdn.net",
      "metacafe.com",     "israel.example.il",
  };
  static const char* kPaths[] = {
      "/", "/home.php", "/watch?v=1", "/wiki/%D8%AF%D9%85%D8%B4%D9%82",
      "/a,b/\"quoted\"/path",
  };
  static const char* kQueries[] = {
      "", "q=proxy+server", "q=israel news", "ref=revolution", "id=42",
  };
  static const char* kFacebookPaths[] = {
      "/plugins/like.php", "/Syrian.Revolution", "/extern/login_status.php",
      "/pages/palestine", "/plugins/likebox.php",
  };
  static const char* kAgents[] = {
      "Mozilla/5.0 (Windows NT 6.1)", "Skype/5.3", "Opera/9.80 \"tag\"", "-",
  };
  static const char* kCategories[] = {
      "News/Media", "Social Networking, Personals", "none", "-",
  };
  const std::int64_t base = util::to_unix_seconds({2011, 8, 1, 0, 0, 0});
  std::vector<proxy::LogRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    proxy::LogRecord record;
    record.time = base + static_cast<std::int64_t>(i * 2);
    record.proxy_index = static_cast<std::uint8_t>(i % 7);
    // Adjacent pairs share a user so policy redirects see follow-ups
    // inside redirect_followups' 2-second window.
    record.user_hash = i % 5 == 0 ? 0 : 1000 + (i / 2) % 97;
    record.method = i % 11 == 0 ? "POST" : "GET";
    record.user_agent = kAgents[i % 4];
    record.categories = kCategories[i % 4];
    record.url.scheme = i % 4 == 0 ? net::Scheme::kHttps : net::Scheme::kHttp;
    record.url.port = net::default_port(record.url.scheme);
    record.filter_result = proxy::FilterResult::kObserved;
    record.exception = proxy::ExceptionId::kNone;
    if (i % 23 == 0) {
      // Tor relay endpoint addressed by IP literal.
      const auto& relay = relays.relays()[i % relays.size()];
      record.url.scheme = net::Scheme::kHttp;
      record.url.host = relay.address.to_string();
      record.url.port = relay.or_port;
      record.url.path = "/";
      record.dest_ip = relay.address;
      if (i % 46 == 0) {
        record.filter_result = proxy::FilterResult::kDenied;
        record.exception = proxy::ExceptionId::kPolicyDenied;
      }
    } else if (i % 19 == 0) {
      // Google cache fetch of a directly-censored site.
      record.url.host = "webcache.googleusercontent.com";
      record.url.path = "/search";
      record.url.query = std::string("q=cache:AbC123:") +
                         (i % 38 == 0 ? "al-akhbar.com" : "skype.com") +
                         "/page.html";
      if (i % 57 == 0) {
        record.filter_result = proxy::FilterResult::kDenied;
        record.exception = proxy::ExceptionId::kPolicyDenied;
      }
    } else if (i % 17 == 0) {
      // BitTorrent announce with registry-resolvable payloads.
      const auto& content =
          torrents.contents()[i % torrents.contents().size()];
      record.url.host = "tracker.example.net";
      record.url.path = "/announce";
      record.url.query = "info_hash=" + content.info_hash +
                         "&peer_id=peer" + std::to_string(i % 37);
      if (i % 34 == 0) {
        record.filter_result = proxy::FilterResult::kDenied;
        record.exception = proxy::ExceptionId::kPolicyDenied;
      }
    } else if (i % 13 == 0) {
      // facebook.com pages and plugin endpoints; some rows carry the
      // "Blocked sites" custom-category label.
      record.url.host = "www.facebook.com";
      record.url.path = kFacebookPaths[i % 5];
      if (i % 39 == 0) record.categories = "Blocked sites";
      switch (i % 3) {
        case 0:
          record.filter_result = proxy::FilterResult::kDenied;
          record.exception = proxy::ExceptionId::kPolicyDenied;
          break;
        case 1:
          record.filter_result = proxy::FilterResult::kProxied;
          record.exception = proxy::ExceptionId::kPolicyRedirect;
          break;
        default:
          break;
      }
    } else if (i % 7 == 3) {
      // Direct-IP request; thirds of the space inside the two GeoIP
      // countries, the rest unlocatable.
      const auto octet = static_cast<std::uint8_t>(i % 250);
      const net::Ipv4Addr addr =
          i % 3 == 0   ? net::Ipv4Addr{84, 229, octet, 9}
          : i % 3 == 1 ? net::Ipv4Addr{212, 150, octet, 7}
                       : net::Ipv4Addr{198, 51, 100, octet};
      record.url.scheme = net::Scheme::kHttp;
      record.url.host = addr.to_string();
      record.url.port = 80;
      record.url.path = "/";
      record.dest_ip = addr;
      if (i % 14 == 3) {
        record.filter_result = proxy::FilterResult::kDenied;
        record.exception = proxy::ExceptionId::kPolicyDenied;
      }
    } else {
      record.url.host = kHosts[i % 8];
      record.url.path = kPaths[i % 5];
      record.url.query = kQueries[i % 5];
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
          break;
      }
    }
    record.status = record.exception == proxy::ExceptionId::kNone ? 200 : 403;
    records.push_back(record);
  }
  return records;
}

// --- fixture ----------------------------------------------------------------

struct Fixture {
  fs::path dir;
  tor::RelayDirectory relays = tor::RelayDirectory::synthesize(40, 99);
  workload::TorrentRegistry torrents{64, 7};
  geo::GeoIpDb geoip;
  category::Categorizer categorizer;
  analysis::Dataset dataset;  // loaded back from the CSV file, like the CLI
  std::unique_ptr<analysis::ColumnarLog> columnar;
  /// The same CSV file as the CLI opens it, parsed ahead on 8 threads.
  std::optional<analysis::OpenedSource> opened;
  std::shared_ptr<const std::vector<std::uint8_t>> sample_mask;
  std::int64_t start = 0;
  std::int64_t end = 0;

  Fixture() {
    dir = fs::path(::testing::TempDir()) / "syrwatch_scan_identity";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto records = varied_records(6000, relays, torrents);
    start = records.front().time;
    end = records.back().time + 1;

    // Row backend: serialize to CSV and read it back, so the Dataset went
    // through exactly the bytes `syrwatchctl --format csv` would see. The
    // parse normalizes the "-" placeholder fields, so the container below
    // is written from the *parsed* records — both backends hold the same
    // logical log, as when `syrwatchctl convert` produces the container.
    {
      std::ofstream out{(dir / "log.csv").string()};
      out << proxy::log_csv_header() << '\n';
      for (const auto& record : records) out << proxy::to_csv(record) << '\n';
    }
    std::ifstream in{(dir / "log.csv").string()};
    const auto parsed = proxy::read_log(in);
    for (const auto& record : parsed) dataset.add(record);

    {
      colfmt::WriterOptions options;
      options.block_rows = 512;  // several blocks -> real partitioning
      colfmt::Writer writer{(dir / "log.col").string(), options};
      for (const auto& record : parsed) writer.add(record);
      writer.finish();
    }
    columnar = std::make_unique<analysis::ColumnarLog>(
        colfmt::Reader::open((dir / "log.col").string()));
    opened.emplace(analysis::open_source((dir / "log.csv").string(),
                                         {.format = "csv", .threads = 8}));

    geoip.add(*net::Ipv4Subnet::parse("84.229.0.0/16"), "Israel");
    geoip.add(*net::Ipv4Subnet::parse("212.150.0.0/16"), "Israel");
    geoip.add(*net::Ipv4Subnet::parse("5.0.0.0/8"), "Syria");

    categorizer.add("skype.com", category::Category::kInstantMessaging);
    categorizer.add("metacafe.com", category::Category::kStreamingMedia);
    categorizer.add("al-akhbar.com", category::Category::kGeneralNews);
    categorizer.add("facebook.com", category::Category::kSocialNetworking);
    categorizer.add("hidemyass.com", category::Category::kAnonymizer);

    auto mask = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(records.size()), std::uint8_t{0});
    for (std::size_t i = 0; i < mask->size(); i += 3) (*mask)[i] = 1;
    sample_mask = std::move(mask);
  }
  ~Fixture() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

const Fixture& fx() {
  static Fixture fixture;
  return fixture;
}

// --- serialization ----------------------------------------------------------

/// Every serializer writes doubles as hexfloat, so "identical" means
/// bit-exact, not approximately equal.
std::ostringstream make_out() {
  std::ostringstream out;
  out << std::hexfloat;
  return out;
}

void put(std::ostream& out, const util::BinnedCounter& counter) {
  out << counter.origin() << '/' << counter.bin_width() << '/'
      << counter.overflow();
  for (const auto count : counter.counts()) out << ',' << count;
  out << ';';
}

void put(std::ostream& out, const std::vector<analysis::DomainCount>& top) {
  for (const auto& entry : top)
    out << entry.domain << ':' << entry.count << ':' << entry.share << ';';
}

// --- golden baselines -------------------------------------------------------

/// tests/golden/scan_identity.txt: per analyzer, a "== NAME BYTES" line,
/// then exactly BYTES bytes of serialized baseline and a newline.
using Golden = std::map<std::string, std::string>;

Golden read_golden(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  Golden golden;
  std::string header;
  while (std::getline(in, header)) {
    std::istringstream fields{header};
    std::string marker, name;
    std::size_t bytes = 0;
    if (!(fields >> marker >> name >> bytes) || marker != "==") break;
    std::string body(bytes, '\0');
    in.read(body.data(), static_cast<std::streamsize>(bytes));
    in.ignore(1);  // the newline after the body
    golden[name] = body;
  }
  return golden;
}

void write_golden(const std::string& path, const Golden& golden) {
  std::ofstream out{path, std::ios::binary};
  for (const auto& [name, body] : golden)
    out << "== " << name << ' ' << body.size() << '\n' << body << '\n';
}

/// Asserts `baseline` equals the checked-in entry for `name`, so a bug
/// that both backends share cannot pass by agreeing with itself.
void expect_golden(const std::string& name, const std::string& baseline) {
  static const Golden golden =
      read_golden(SYRWATCH_GOLDEN_DIR "/scan_identity.txt");
  // Re-bless (only for a deliberate output change): every run writes the
  // entries it computed to <gtest TempDir>/syrwatch_scan_identity.txt;
  // after a full run, copy that file over tests/golden/scan_identity.txt.
  static Golden computed;
  computed[name] = baseline;
  write_golden(::testing::TempDir() + "syrwatch_scan_identity.txt",
               computed);
  const auto entry = golden.find(name);
  ASSERT_NE(entry, golden.end()) << name << ": no golden entry";
  EXPECT_EQ(baseline, entry->second) << name << ": differs from the golden";
}

/// Runs `render` over (row, 1), (row, 8), (columnar, 1), (columnar, 8) and
/// the csv open_source loaded at 8 threads, (opened, 8), and expects one
/// string, equal to the golden.
using Render =
    std::function<std::string(const analysis::LogSource&, std::size_t)>;

void expect_identity(const char* name, const Render& render) {
  const analysis::LogSource row{fx().dataset};
  const analysis::LogSource col{*fx().columnar};
  const std::string baseline = render(row, 1);
  EXPECT_FALSE(baseline.empty()) << name;
  expect_golden(name, baseline);
  EXPECT_EQ(baseline, render(row, 8)) << name << ": row @8 threads";
  EXPECT_EQ(baseline, render(col, 1)) << name << ": columnar @1 thread";
  EXPECT_EQ(baseline, render(col, 8)) << name << ": columnar @8 threads";
  EXPECT_EQ(baseline, render(fx().opened->source(), 8))
      << name << ": csv opened @8 threads";
}

// --- the analyzers ----------------------------------------------------------

TEST(ScanIdentity, TrafficStats) {
  expect_identity("traffic_stats", [](const analysis::LogSource& src,
                                      std::size_t threads) {
    const auto stats = analysis::traffic_stats(src, threads);
    auto out = make_out();
    out << stats.total << '/' << stats.observed << '/' << stats.proxied << '/'
        << stats.denied;
    for (const auto count : stats.denied_by_exception) out << ',' << count;
    return out.str();
  });
}

TEST(ScanIdentity, TopDomains) {
  expect_identity("top_domains", [](const analysis::LogSource& src,
                                    std::size_t threads) {
    auto out = make_out();
    for (const auto cls :
         {proxy::TrafficClass::kCensored, proxy::TrafficClass::kAllowed,
          proxy::TrafficClass::kError}) {
      put(out, analysis::top_domains(src, {cls, 50, std::nullopt}, threads));
      out << '\n';
    }
    const analysis::TimeRange window{fx().start, fx().start + 3600};
    put(out, analysis::top_domains(
                 src, {proxy::TrafficClass::kCensored, 10, window}, threads));
    return out.str();
  });
}

TEST(ScanIdentity, DomainClassCounts) {
  expect_identity("domain_class_counts", [](const analysis::LogSource& src,
                                            std::size_t threads) {
    const std::vector<std::string> domains{"facebook.com", ".il",
                                           "skype.com"};
    auto out = make_out();
    for (const auto& entry :
         analysis::domain_class_counts(src, domains, threads))
      out << entry.domain << ':' << entry.censored << '/' << entry.allowed
          << '/' << entry.proxied << ';';
    return out.str();
  });
}

TEST(ScanIdentity, WindowedTopCensored) {
  expect_identity("windowed_top_censored", [](const analysis::LogSource& src,
                                              std::size_t threads) {
    analysis::WindowedTopOptions options;
    options.k = 5;
    for (std::int64_t t = fx().start; t < fx().end; t += 7200)
      options.windows.push_back({t, t + 7200});
    auto out = make_out();
    for (const auto& window :
         analysis::windowed_top_censored(src, options, threads)) {
      out << window.window.start << '-' << window.window.end << '=';
      put(out, window.top);
      out << '\n';
    }
    return out.str();
  });
}

TEST(ScanIdentity, TrafficTimeSeriesAndRcv) {
  expect_identity("traffic_time_series", [](const analysis::LogSource& src,
                                            std::size_t threads) {
    const analysis::TrafficSeriesOptions options{{fx().start, fx().end},
                                                 {300}};
    const auto series = analysis::traffic_time_series(src, options, threads);
    auto out = make_out();
    put(out, series.censored);
    put(out, series.allowed);
    const analysis::RcvOptions rcv_options{{fx().start, fx().end}, {300}};
    const auto rcv = analysis::rcv_series(src, rcv_options, threads);
    out << rcv.origin << '/' << rcv.bin_seconds;
    for (const auto value : rcv.rcv) out << ',' << value;
    return out.str();
  });
}

TEST(ScanIdentity, PortAndDomainDistributions) {
  expect_identity("port/domain_distribution", [](const analysis::LogSource& src,
                                                 std::size_t threads) {
    auto out = make_out();
    for (const auto& port : analysis::port_distribution(src, 0, threads))
      out << port.port << ':' << port.allowed << '/' << port.censored << ';';
    out << '\n';
    for (const auto cls :
         {proxy::TrafficClass::kCensored, proxy::TrafficClass::kAllowed,
          proxy::TrafficClass::kError}) {
      const auto dist = analysis::domain_distribution(src, cls, threads);
      out << dist.unique_domains << '/' << dist.max_requests << '/'
          << dist.loglog_slope;
      for (const auto& [count, domains] : dist.domains_by_request_count)
        out << ',' << count << '=' << domains;
      out << '\n';
    }
    return out.str();
  });
}

TEST(ScanIdentity, UserStats) {
  expect_identity("user_stats", [](const analysis::LogSource& src,
                                   std::size_t threads) {
    const auto stats = analysis::user_stats(src, threads);
    auto out = make_out();
    out << stats.total_users << '/' << stats.censored_users << ';';
    for (const auto& [count, users] : stats.users_by_censored_count)
      out << count << '=' << users << ',';
    out << ';';
    for (const auto value : stats.requests_per_censored_user)
      out << value << ',';
    out << ';';
    for (const auto value : stats.requests_per_clean_user) out << value << ',';
    return out.str();
  });
}

TEST(ScanIdentity, CategoryDistribution) {
  expect_identity("category_distribution", [](const analysis::LogSource& src,
                                              std::size_t threads) {
    auto out = make_out();
    for (const auto& entry : analysis::category_distribution(
             src, fx().categorizer, proxy::TrafficClass::kCensored, threads))
      out << category::to_string(entry.category) << ':' << entry.requests
          << ':' << entry.share << ';';
    out << '\n';
    const std::vector<std::string> domains{"skype.com", "al-akhbar.com",
                                           "unknown.example"};
    for (const auto& entry : analysis::categorize_domains(
             src, fx().categorizer, domains, threads))
      out << category::to_string(entry.category) << ':' << entry.domains
          << ':' << entry.censored_requests << ';';
    return out.str();
  });
}

TEST(ScanIdentity, AgentStats) {
  expect_identity("agent_stats", [](const analysis::LogSource& src,
                                    std::size_t threads) {
    auto out = make_out();
    for (const auto& agent : analysis::agent_stats(src, 5, threads))
      out << agent.agent << ':' << agent.requests << '/' << agent.censored
          << ';';
    return out.str();
  });
}

TEST(ScanIdentity, AnonymizerStats) {
  expect_identity("anonymizer_stats", [](const analysis::LogSource& src,
                                         std::size_t threads) {
    const auto stats =
        analysis::anonymizer_stats(src, fx().categorizer, threads);
    auto out = make_out();
    out << stats.hosts << '/' << stats.requests << '/'
        << stats.never_filtered_hosts << '/' << stats.never_filtered_requests
        << '/' << stats.filtered_hosts << ';';
    for (const auto value : stats.requests_per_clean_host) out << value << ',';
    out << ';';
    for (const auto value : stats.allowed_censored_ratio) out << value << ',';
    return out.str();
  });
}

TEST(ScanIdentity, HttpsStats) {
  expect_identity("https_stats", [](const analysis::LogSource& src,
                                    std::size_t threads) {
    const auto stats = analysis::https_stats(src, threads);
    auto out = make_out();
    out << stats.total << '/' << stats.censored << '/'
        << stats.censored_ip_dest << '/' << stats.with_uri_fields << '/'
        << stats.all_records;
    return out.str();
  });
}

TEST(ScanIdentity, GoogleCacheStats) {
  expect_identity("google_cache_stats", [](const analysis::LogSource& src,
                                           std::size_t threads) {
    const std::vector<std::string> suffixes{"al-akhbar.com", "skype.com"};
    const auto stats = analysis::google_cache_stats(src, suffixes, threads);
    auto out = make_out();
    out << stats.requests << '/' << stats.allowed << '/' << stats.censored
        << ';';
    for (const auto& site : stats.censored_sites_served)
      out << site.site << ':' << site.allowed_fetches << ';';
    return out.str();
  });
}

TEST(ScanIdentity, BitTorrentStats) {
  expect_identity("bittorrent_stats", [](const analysis::LogSource& src,
                                         std::size_t threads) {
    const auto stats = analysis::bittorrent_stats(src, fx().torrents, threads);
    auto out = make_out();
    out << stats.announces << '/' << stats.allowed << '/' << stats.censored
        << '/' << stats.unique_peers << '/' << stats.unique_contents << '/'
        << stats.resolved_contents << ';';
    for (const auto& tool : stats.tool_announces)
      out << tool.tool << ':' << tool.announces << ';';
    return out.str();
  });
}

TEST(ScanIdentity, SocialPluginStats) {
  expect_identity("social_plugin_stats", [](const analysis::LogSource& src,
                                            std::size_t threads) {
    const auto stats = analysis::social_plugin_stats(src, threads);
    auto out = make_out();
    out << stats.facebook_censored << '/' << stats.plugin_censored << ';';
    for (const auto& element : stats.elements)
      out << element.path << ':' << element.censored << '/' << element.allowed
          << '/' << element.proxied << ':' << element.censored_share << ';';
    return out.str();
  });
}

TEST(ScanIdentity, TorAnalyzers) {
  expect_identity("tor_stats", [](const analysis::LogSource& src,
                                  std::size_t threads) {
    const auto stats = analysis::tor_stats(src, fx().relays, threads);
    auto out = make_out();
    out << stats.requests << '/' << stats.http_requests << '/'
        << stats.onion_requests << '/' << stats.unique_relays << '/'
        << stats.censored << '/' << stats.tcp_errors << '/'
        << stats.censored_http << '/' << stats.censored_onion;
    for (const auto count : stats.censored_by_proxy) out << ',' << count;
    for (const auto count : stats.requests_by_proxy) out << ',' << count;
    out << '\n';
    const analysis::TorHourlyOptions hourly{{fx().start, fx().end}, {3600}};
    put(out, analysis::tor_hourly_series(src, fx().relays, hourly, threads));
    for (const std::size_t proxy : {std::size_t{0}, std::size_t{3}}) {
      const auto rfilter = analysis::rfilter_series(
          src, fx().relays, proxy, fx().start, fx().end, 3600, threads);
      out << '\n' << rfilter.censored_relay_count;
      for (std::size_t i = 0; i < rfilter.rfilter.size(); ++i)
        out << ',' << rfilter.rfilter[i] << (rfilter.has_traffic[i] ? '+' : '-');
      const auto censored = analysis::proxy_censored_series(
          src, fx().relays, proxy, fx().start, fx().end, 3600, threads);
      out << '\n';
      for (std::size_t i = 0; i < censored.censored_share.size(); ++i)
        out << censored.censored_share[i] << '/' << censored.tor_censored[i]
            << ',';
    }
    return out.str();
  });
}

TEST(ScanIdentity, IpCensorship) {
  expect_identity("ip_censorship", [](const analysis::LogSource& src,
                                      std::size_t threads) {
    auto out = make_out();
    for (const auto& country :
         analysis::country_censorship(src, fx().geoip, threads))
      out << country.country << ':' << country.censored << '/'
          << country.allowed << ';';
    out << '\n';
    const std::vector<net::Ipv4Subnet> subnets{
        *net::Ipv4Subnet::parse("84.229.0.0/16"),
        *net::Ipv4Subnet::parse("212.150.0.0/16"),
        *net::Ipv4Subnet::parse("198.51.100.0/24")};
    for (const auto& subnet :
         analysis::subnet_censorship(src, subnets, threads))
      out << subnet.censored_requests << '/' << subnet.allowed_requests << '/'
          << subnet.proxied_requests << ':' << subnet.censored_ips << '/'
          << subnet.allowed_ips << '/' << subnet.proxied_ips << ';';
    out << '\n' << analysis::direct_ip_requests(src, threads);
    return out.str();
  });
}

TEST(ScanIdentity, Osn) {
  expect_identity("osn", [](const analysis::LogSource& src,
                            std::size_t threads) {
    auto out = make_out();
    for (const auto& entry : analysis::osn_censorship(src, threads))
      out << entry.domain << ':' << entry.censored << '/' << entry.allowed
          << '/' << entry.proxied << ';';
    out << '\n';
    for (const auto& page : analysis::blocked_facebook_pages(src, threads))
      out << page.page << ':' << page.censored << '/' << page.allowed << '/'
          << page.proxied << ';';
    return out.str();
  });
}

TEST(ScanIdentity, KeywordWeather) {
  expect_identity("keyword_weather", [](const analysis::LogSource& src,
                                        std::size_t threads) {
    const std::vector<std::string> keywords{"israel", "proxy", "revolution"};
    auto out = make_out();
    for (const auto& weather : analysis::keyword_weather(
             src, keywords, {{fx().start, fx().end}, {3600}}, threads)) {
      out << weather.keyword << ':' << weather.origin << '/'
          << weather.bin_seconds;
      for (std::size_t i = 0; i < weather.censored.size(); ++i)
        out << ',' << weather.censored[i] << '/' << weather.matched[i];
      out << '\n';
    }
    return out.str();
  });
}

TEST(ScanIdentity, Redirects) {
  expect_identity("redirects", [](const analysis::LogSource& src,
                                  std::size_t threads) {
    auto out = make_out();
    for (const auto& host : analysis::redirect_hosts(src, {.k = 0}, threads))
      out << host.host << ':' << host.requests << ':' << host.share << ';';
    out << '\n' << analysis::redirect_followups(src, {.window_seconds = 2}, threads);
    return out.str();
  });
}

TEST(ScanIdentity, ProxyComparisons) {
  expect_identity("proxy_compare", [](const analysis::LogSource& src,
                                      std::size_t threads) {
    auto out = make_out();
    const auto load = analysis::proxy_load_series(
        src, {{fx().start, fx().end}, {3600}}, threads);
    out << load.origin << '/' << load.bin_seconds << ';';
    for (const auto& series : load.total)
      for (const auto count : series) out << count << ',';
    for (const auto& series : load.censored)
      for (const auto count : series) out << count << ',';
    out << '\n';
    const auto similarity = analysis::censored_domain_similarity(
        src, {{fx().start, fx().end}}, threads);
    for (const auto& row : similarity.matrix)
      for (const auto value : row) out << value << ',';
    out << '\n';
    const auto labels = analysis::proxy_category_labels(src, threads);
    for (const auto& proxy : labels.labels) {
      for (const auto& label : proxy)
        out << label.label << ':' << label.count << ';';
      out << '|';
    }
    return out.str();
  });
}

TEST(ScanIdentity, Coverage) {
  expect_identity("request_coverage", [](const analysis::LogSource& src,
                                         std::size_t threads) {
    const auto coverage = analysis::request_coverage(
        src, {.bin = {3600}, .min_farm_bin_requests = 2}, threads);
    auto out = make_out();
    out << coverage.bin_seconds << '/' << coverage.total_requests << '/'
        << coverage.active_bins << ';';
    for (const auto total : coverage.totals) out << total << ',';
    out << ';';
    for (const auto covered : coverage.covered_bins) out << covered << ',';
    out << ';';
    for (const auto& day : coverage.days) {
      out << day.day_start;
      for (const auto count : day.requests) out << ',' << count;
      out << ';';
    }
    for (const auto& gap : coverage.gaps)
      out << int{gap.proxy_index} << ':' << gap.start << '-' << gap.end << ':'
          << gap.farm_requests << ';';
    return out.str();
  });
}

TEST(ScanIdentity, SamplingAuditOverMaskedView) {
  expect_identity("sampling_audit", [](const analysis::LogSource& src,
                                       std::size_t threads) {
    const auto sample = src.masked(fx().sample_mask, threads);
    auto out = make_out();
    for (const auto& check :
         analysis::sampling_audit(src, sample, 0.05, threads))
      out << check.metric << ':' << check.full_proportion << '/'
          << check.sample_proportion << '/' << check.interval.lo << '/'
          << check.interval.hi << '/' << (check.covered ? 'y' : 'n') << ';';
    return out.str();
  });
}

TEST(ScanIdentity, PolicyImpact) {
  expect_identity("policy_impact", [](const analysis::LogSource& src,
                                      std::size_t threads) {
    policy::PolicyEngine engine;
    engine.add({policy::DomainRule{"facebook.com"},
                policy::PolicyAction::kDeny, "d"});
    engine.add({policy::SubnetRule{*net::Ipv4Subnet::parse("84.229.0.0/16")},
                policy::PolicyAction::kDeny, "s"});
    policy::CustomCategoryList custom;
    const auto impact =
        analysis::policy_impact(src, engine, custom, {.top_k = 10}, threads);
    auto out = make_out();
    out << impact.evaluated << '/' << impact.censored_observed << '/'
        << impact.censored_hypothetical << '/' << impact.newly_censored << '/'
        << impact.newly_allowed << ';';
    put(out, impact.top_newly_censored);
    return out.str();
  });
}

TEST(ScanIdentity, StringDiscovery) {
  expect_identity("discover_censored_strings",
                  [](const analysis::LogSource& src, std::size_t threads) {
    analysis::DiscoveryOptions options;
    options.min_count = 5;
    const auto result =
        analysis::discover_censored_strings(src, options, threads);
    auto out = make_out();
    out << result.censored_requests_explained << '/'
        << result.censored_requests_total << '\n';
    for (const auto& keyword : result.keywords)
      out << keyword.text << ':' << keyword.censored << '/' << keyword.proxied
          << ';';
    out << '\n';
    for (const auto& domain : result.domains)
      out << domain.text << ':' << domain.censored << '/' << domain.proxied
          << ';';
    return out.str();
  });
}

// Logs arrive in emission order, which is only approximately time-sorted
// (local jitter inside a slot). Here the row Dataset is fed the records
// in time order while the container keeps emission order: time-window
// analyzers must agree anyway, because the scan layer computes true time
// bounds and coverage bins order-independently.
TEST(ScanIdentity, EmissionOrderContainer) {
  const auto records = varied_records(2000, fx().relays, fx().torrents);
  std::vector<proxy::LogRecord> jittered = records;
  for (std::size_t i = 0; i + 1 < jittered.size(); i += 2)
    std::swap(jittered[i].time, jittered[i + 1].time);

  std::vector<proxy::LogRecord> time_sorted = jittered;
  std::stable_sort(time_sorted.begin(), time_sorted.end(),
                   [](const proxy::LogRecord& a, const proxy::LogRecord& b) {
                     return a.time < b.time;
                   });
  analysis::Dataset dataset;
  for (const auto& record : time_sorted) dataset.add(record);

  const auto col_path = (fx().dir / "jittered.col").string();
  {
    colfmt::WriterOptions options;
    options.block_rows = 256;
    colfmt::Writer writer{col_path, options};
    for (const auto& record : jittered) writer.add(record);
    writer.finish();
  }
  const analysis::ColumnarLog columnar{colfmt::Reader::open(col_path)};

  const analysis::LogSource row{dataset};
  const analysis::LogSource col{columnar};
  const auto row_bounds = row.time_bounds();
  const auto col_bounds = col.time_bounds();
  EXPECT_EQ(row_bounds.first, col_bounds.first);
  EXPECT_EQ(row_bounds.last, col_bounds.last);

  const Render coverage = [](const analysis::LogSource& src,
                             std::size_t threads) {
    const auto report = analysis::request_coverage(
        src, {.bin = {3600}, .min_farm_bin_requests = 2}, threads);
    auto out = make_out();
    out << report.total_requests << '/' << report.active_bins << ';';
    for (const auto& day : report.days) {
      out << day.day_start;
      for (const auto count : day.requests) out << ',' << count;
      out << ';';
    }
    for (const auto& gap : report.gaps)
      out << int{gap.proxy_index} << ':' << gap.start << '-' << gap.end
          << ';';
    return out.str();
  };
  const std::string baseline = coverage(row, 1);
  EXPECT_FALSE(baseline.empty());
  expect_golden("emission_order_coverage", baseline);
  EXPECT_EQ(baseline, coverage(row, 8)) << "row @8 threads";
  EXPECT_EQ(baseline, coverage(col, 1)) << "columnar @1 thread";
  EXPECT_EQ(baseline, coverage(col, 8)) << "columnar @8 threads";
}

TEST(ScanIdentity, FilteredViewStaysIdentical) {
  expect_identity("filtered_view", [](const analysis::LogSource& src,
                                      std::size_t threads) {
    const auto censored_only = src.filtered(
        [](const analysis::Record& record) {
          return record.cls == proxy::TrafficClass::kCensored;
        },
        threads);
    auto out = make_out();
    out << censored_only.rows() << '\n';
    put(out, analysis::top_domains(
                 censored_only,
                 {proxy::TrafficClass::kCensored, 50, std::nullopt}, threads));
    const auto stats = analysis::traffic_stats(censored_only, threads);
    out << '\n' << stats.total << '/' << stats.denied;
    return out.str();
  });
}

}  // namespace
