// Evasion-side analyses: IP censorship (Tables 11/12), OSNs (Tables
// 13/14), social plugins (Table 15), Tor (§7.1), anonymizers (§7.2),
// BitTorrent (§7.3) and Google cache (§7.4).

#include <gtest/gtest.h>

#include "analysis/anonymizer.h"
#include "analysis/bittorrent.h"
#include "analysis/google_cache.h"
#include "analysis/ip_censorship.h"
#include "analysis/osn.h"
#include "analysis/social_plugins.h"
#include "analysis/tor_analysis.h"
#include "geo/world.h"
#include "workload/torrents.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

constexpr std::int64_t kT0 = 1312329600;

proxy::LogRecord rec(const char* url_text,
                     proxy::ExceptionId exception = proxy::ExceptionId::kNone,
                     std::uint8_t proxy_index = 0, std::int64_t time = kT0) {
  proxy::LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = 1;
  record.url = *net::Url::parse(url_text);
  record.filter_result = exception == proxy::ExceptionId::kNone
                             ? proxy::FilterResult::kObserved
                             : proxy::FilterResult::kDenied;
  record.exception = exception;
  return record;
}

// --- IP censorship ------------------------------------------------------------

TEST(IpCensorship, CountryRatiosRanked) {
  const auto geoip = geo::build_world_geoip();
  Dataset dataset;
  // Israel: 2 censored, 1 allowed. Netherlands: 1 censored, 9 allowed.
  dataset.add(rec("http://84.229.1.1/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://46.120.0.9/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://80.179.4.4/"));
  dataset.add(rec("http://94.75.200.1/", proxy::ExceptionId::kPolicyDenied));
  for (int i = 0; i < 9; ++i) dataset.add(rec("http://94.75.201.2/"));
  // Hostname rows are outside DIPv4.
  dataset.add(rec("http://facebook.com/"));
  // Errors are neither allowed nor censored.
  dataset.add(rec("http://84.229.1.1/", proxy::ExceptionId::kTcpError));

  const auto countries = country_censorship(dataset, geoip);
  ASSERT_EQ(countries.size(), 2u);
  EXPECT_EQ(countries[0].country, geo::kIsrael);
  EXPECT_NEAR(countries[0].ratio(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(countries[1].country, geo::kNetherlands);
  EXPECT_NEAR(countries[1].ratio(), 0.1, 1e-12);
}

TEST(IpCensorship, SubnetTable12Shape) {
  Dataset dataset;
  dataset.add(rec("http://84.229.1.1/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://84.229.1.1/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://84.229.2.2/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://212.150.7.33/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://212.150.130.1/"));
  dataset.add(rec("http://212.150.130.2/"));

  const std::vector<net::Ipv4Subnet> subnets{
      *net::Ipv4Subnet::parse("84.229.0.0/16"),
      *net::Ipv4Subnet::parse("212.150.0.0/16")};
  const auto result = subnet_censorship(dataset, subnets);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].censored_requests, 3u);
  EXPECT_EQ(result[0].censored_ips, 2u);
  EXPECT_EQ(result[0].allowed_requests, 0u);
  EXPECT_EQ(result[1].censored_requests, 1u);
  EXPECT_EQ(result[1].allowed_requests, 2u);
  EXPECT_EQ(result[1].allowed_ips, 2u);
}

TEST(IpCensorship, DirectIpCount) {
  Dataset dataset;
  dataset.add(rec("http://84.229.1.1/"));
  dataset.add(rec("http://facebook.com/"));
  EXPECT_EQ(direct_ip_requests(dataset), 1u);
}

// --- OSN / Facebook -------------------------------------------------------------

TEST(Osn, StudySetIncludesArabicNetworks) {
  const auto& networks = studied_social_networks();
  EXPECT_NE(std::find(networks.begin(), networks.end(), "salamworld.com"),
            networks.end());
  EXPECT_NE(std::find(networks.begin(), networks.end(), "muslimup.com"),
            networks.end());
  EXPECT_NE(std::find(networks.begin(), networks.end(), "facebook.com"),
            networks.end());
}

TEST(Osn, RanksByCensored) {
  Dataset dataset;
  for (int i = 0; i < 3; ++i)
    dataset.add(rec("http://badoo.com/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.twitter.com/"));
  dataset.add(rec("http://www.twitter.com/api/ads/proxy",
                  proxy::ExceptionId::kPolicyDenied));

  const auto osns = osn_censorship(dataset);
  ASSERT_GE(osns.size(), 2u);
  EXPECT_EQ(osns[0].domain, "badoo.com");
  EXPECT_EQ(osns[0].censored, 3u);
  EXPECT_EQ(osns[1].domain, "twitter.com");
  EXPECT_EQ(osns[1].censored, 1u);
  EXPECT_EQ(osns[1].allowed, 1u);
}

TEST(Facebook, BlockedPagesDetectedByCustomCategory) {
  Dataset dataset;
  auto categorized = rec("http://www.facebook.com/Syrian.Revolution?ref=ts",
                         proxy::ExceptionId::kPolicyRedirect);
  categorized.categories = "Blocked sites; unavailable";
  dataset.add(categorized);
  // Uncategorized variant of the same page: allowed, still counted.
  auto variant = rec(
      "http://www.facebook.com/Syrian.Revolution?ref=ts&ajaxpipe=1");
  variant.categories = "unavailable";
  dataset.add(variant);
  // Sister page never categorized: absent from the table.
  auto sister = rec("http://www.facebook.com/Syrian.Revolution.Army");
  sister.categories = "unavailable";
  dataset.add(sister);

  const auto pages = blocked_facebook_pages(dataset);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0].page, "Syrian.Revolution");
  EXPECT_EQ(pages[0].censored, 1u);
  EXPECT_EQ(pages[0].allowed, 1u);
}

TEST(SocialPlugins, Table15Shares) {
  Dataset dataset;
  for (int i = 0; i < 4; ++i)
    dataset.add(rec("http://www.facebook.com/plugins/like.php?c=proxy",
                    proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.facebook.com/ajax/proxy.php",
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.facebook.com/SomePage",
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.facebook.com/home.php"));

  const auto stats = social_plugin_stats(dataset);
  EXPECT_EQ(stats.facebook_censored, 6u);
  EXPECT_EQ(stats.plugin_censored, 5u);
  ASSERT_FALSE(stats.elements.empty());
  EXPECT_EQ(stats.elements[0].path, "/plugins/like.php");
  EXPECT_EQ(stats.elements[0].censored, 4u);
  EXPECT_NEAR(stats.elements[0].censored_share, 4.0 / 6.0, 1e-12);
}

// --- Tor -------------------------------------------------------------------------

class TorAnalysisTest : public ::testing::Test {
 protected:
  TorAnalysisTest() : relays_(tor::RelayDirectory::synthesize(30, 3)) {}

  const tor::Relay& relay(std::size_t i) const { return relays_.relays()[i]; }

  proxy::LogRecord tor_rec(const tor::Relay& relay, bool http,
                           proxy::ExceptionId exception,
                           std::uint8_t proxy_index, std::int64_t time) {
    std::string url = "http://" + relay.address.to_string() + ":" +
                      std::to_string(http ? relay.dir_port : relay.or_port);
    if (http) url += "/tor/server/authority.z";
    auto record = rec(url.c_str(), exception, proxy_index, time);
    record.dest_ip = relay.address;
    if (!http) record.url.scheme = net::Scheme::kTcp;
    return record;
  }

  tor::RelayDirectory relays_;
};

TEST_F(TorAnalysisTest, StatsSplitHttpAndOnion) {
  Dataset dataset;
  const auto& with_dir = [&]() -> const tor::Relay& {
    for (const auto& r : relays_.relays())
      if (r.dir_port != 0) return r;
    throw std::logic_error("no dir relay");
  }();
  for (int i = 0; i < 7; ++i)
    dataset.add(tor_rec(with_dir, true, proxy::ExceptionId::kNone, 1, kT0));
  for (int i = 0; i < 3; ++i)
    dataset.add(tor_rec(with_dir, false, proxy::ExceptionId::kNone, 1, kT0));
  dataset.add(tor_rec(with_dir, false, proxy::ExceptionId::kPolicyDenied, 2,
                      kT0));
  dataset.add(tor_rec(with_dir, false, proxy::ExceptionId::kTcpError, 0,
                      kT0));
  dataset.add(rec("http://facebook.com/"));  // not Tor

  const auto stats = tor_stats(dataset, relays_);
  EXPECT_EQ(stats.requests, 12u);
  EXPECT_EQ(stats.http_requests, 7u);
  EXPECT_EQ(stats.onion_requests, 5u);
  EXPECT_EQ(stats.unique_relays, 1u);
  EXPECT_EQ(stats.censored, 1u);
  EXPECT_EQ(stats.censored_onion, 1u);
  EXPECT_EQ(stats.censored_http, 0u);
  EXPECT_EQ(stats.tcp_errors, 1u);
  EXPECT_EQ(stats.censored_by_proxy[2], 1u);
  EXPECT_EQ(stats.censored_by_proxy[1], 0u);
}

TEST_F(TorAnalysisTest, HourlySeriesCountsTorOnly) {
  Dataset dataset;
  const auto& r = relay(0);
  dataset.add(tor_rec(r, false, proxy::ExceptionId::kNone, 0, kT0 + 100));
  dataset.add(tor_rec(r, false, proxy::ExceptionId::kNone, 0, kT0 + 3700));
  dataset.add(rec("http://facebook.com/", proxy::ExceptionId::kNone, 0,
                  kT0 + 120));
  const auto series =
      tor_hourly_series(dataset, relays_, TorHourlyOptions{{kT0, kT0 + 7200}});
  ASSERT_EQ(series.bin_count(), 2u);
  EXPECT_EQ(series.at(0), 1u);
  EXPECT_EQ(series.at(1), 1u);
}

TEST_F(TorAnalysisTest, RfilterSemantics) {
  Dataset dataset;
  const auto& a = relay(0);
  const auto& b = relay(1);
  // Bin 0: relay A censored. Bin 1: relay A allowed again (overlap 1).
  // Bin 2: only relay B allowed (overlap 0).
  dataset.add(tor_rec(a, false, proxy::ExceptionId::kPolicyDenied, 2,
                      kT0 + 100));
  dataset.add(tor_rec(a, false, proxy::ExceptionId::kNone, 2, kT0 + 3700));
  dataset.add(tor_rec(b, false, proxy::ExceptionId::kNone, 2, kT0 + 7300));

  const auto series = rfilter_series(dataset, relays_, 2, kT0, kT0 + 3 * 3600);
  ASSERT_EQ(series.rfilter.size(), 3u);
  EXPECT_EQ(series.censored_relay_count, 1u);
  EXPECT_NEAR(series.rfilter[0], 1.0, 1e-12);  // censored, not re-allowed
  EXPECT_NEAR(series.rfilter[1], 0.0, 1e-12);  // fully re-allowed
  EXPECT_NEAR(series.rfilter[2], 1.0, 1e-12);  // no overlap in bin
  EXPECT_TRUE(series.has_traffic[2]);
}

TEST_F(TorAnalysisTest, ProxyCensoredSeries) {
  Dataset dataset;
  const auto& r = relay(0);
  // Bin 0: 2 censored total, 1 on SG-44 (index 2), which is a Tor denial.
  dataset.add(tor_rec(r, false, proxy::ExceptionId::kPolicyDenied, 2,
                      kT0 + 100));
  dataset.add(rec("http://skype.com/", proxy::ExceptionId::kPolicyDenied, 0,
                  kT0 + 200));
  // Bin 1: 1 censored, none on SG-44.
  dataset.add(rec("http://skype.com/", proxy::ExceptionId::kPolicyDenied, 1,
                  kT0 + 3700));

  const auto series = analysis::proxy_censored_series(
      dataset, relays_, 2, kT0, kT0 + 7200, 3600);
  ASSERT_EQ(series.censored_share.size(), 2u);
  EXPECT_NEAR(series.censored_share[0], 0.5, 1e-12);
  EXPECT_EQ(series.tor_censored[0], 1u);
  EXPECT_EQ(series.censored_share[1], 0.0);
  EXPECT_EQ(series.tor_censored[1], 0u);
}

// --- Anonymizers ---------------------------------------------------------------

TEST(Anonymizers, SplitsFilteredAndClean) {
  category::Categorizer categorizer;
  categorizer.add("hidemyass.com", category::Category::kAnonymizer);
  categorizer.add("vpn1.net", category::Category::kAnonymizer);
  categorizer.add("vpn2.net", category::Category::kAnonymizer);

  Dataset dataset;
  for (int i = 0; i < 6; ++i) dataset.add(rec("http://hidemyass.com/"));
  for (int i = 0; i < 2; ++i)
    dataset.add(rec("http://hidemyass.com/proxy",
                    proxy::ExceptionId::kPolicyDenied));
  for (int i = 0; i < 4; ++i) dataset.add(rec("http://vpn1.net/"));
  dataset.add(rec("http://vpn2.net/"));
  dataset.add(rec("http://facebook.com/"));  // not anonymizer

  const auto stats = anonymizer_stats(dataset, categorizer);
  EXPECT_EQ(stats.hosts, 3u);
  EXPECT_EQ(stats.requests, 13u);
  EXPECT_EQ(stats.never_filtered_hosts, 2u);
  EXPECT_EQ(stats.filtered_hosts, 1u);
  EXPECT_NEAR(stats.never_filtered_request_share(), 5.0 / 13.0, 1e-12);
  ASSERT_EQ(stats.allowed_censored_ratio.size(), 1u);
  EXPECT_NEAR(stats.allowed_censored_ratio[0], 3.0, 1e-12);
  EXPECT_NEAR(stats.mostly_allowed_share(), 1.0, 1e-12);
}

// --- BitTorrent ------------------------------------------------------------------

TEST(BitTorrent, AnnounceAccounting) {
  const workload::TorrentRegistry registry{50, 5};
  const auto& ultrasurf = registry.contents()[0];  // pinned payload

  Dataset dataset;
  auto announce = [&](const std::string& hash, const char* peer,
                      proxy::ExceptionId exception =
                          proxy::ExceptionId::kNone) {
    const std::string url =
        "http://tracker.example.com/announce?info_hash=" + hash +
        "&peer_id=" + peer + "&port=6881";
    dataset.add(rec(url.c_str(), exception));
  };
  announce(ultrasurf.info_hash, "-UT2210-aaa");
  announce(ultrasurf.info_hash, "-UT2210-bbb");
  announce(registry.contents()[10].info_hash, "-UT2210-aaa");
  announce(registry.contents()[10].info_hash, "-UT2210-aaa",
           proxy::ExceptionId::kPolicyDenied);
  dataset.add(rec("http://tracker.example.com/announce"));  // no info_hash
  dataset.add(rec("http://facebook.com/"));

  const auto stats = bittorrent_stats(dataset, registry);
  EXPECT_EQ(stats.announces, 4u);
  EXPECT_EQ(stats.allowed, 3u);
  EXPECT_EQ(stats.censored, 1u);
  EXPECT_EQ(stats.unique_peers, 2u);
  EXPECT_EQ(stats.unique_contents, 2u);
  ASSERT_FALSE(stats.tool_announces.empty());
  EXPECT_EQ(stats.tool_announces[0].tool, "UltraSurf");
  EXPECT_EQ(stats.tool_announces[0].announces, 2u);
}

// --- Google cache -----------------------------------------------------------------

TEST(GoogleCache, DetectsCensoredSitesServed) {
  Dataset dataset;
  dataset.add(rec("http://webcache.googleusercontent.com/search?q=cache:abc:"
                  "www.panet.co.il/online"));
  dataset.add(rec("http://webcache.googleusercontent.com/search?q=cache:def:"
                  "aawsat.com/x"));
  dataset.add(rec("http://webcache.googleusercontent.com/search?q=cache:ghi:"
                  "harmless.net/x"));
  dataset.add(rec("http://webcache.googleusercontent.com/search?q=cache:jkl:"
                  "www.webproxy.net/p",
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://facebook.com/"));

  const std::vector<std::string> censored_sites{".il", "aawsat.com"};
  const auto stats = google_cache_stats(dataset, censored_sites);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.allowed, 3u);
  EXPECT_EQ(stats.censored, 1u);
  ASSERT_EQ(stats.censored_sites_served.size(), 2u);
}

}  // namespace
