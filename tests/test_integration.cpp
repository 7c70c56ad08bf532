// End-to-end reproduction invariants: run a full (scaled) study once and
// assert the qualitative findings of every paper section hold — who is
// censored, by what mechanism, in what order of magnitude.

#include <gtest/gtest.h>

#include "analysis/agents.h"
#include "analysis/anonymizer.h"
#include "analysis/bittorrent.h"
#include "analysis/impact.h"
#include "analysis/category_dist.h"
#include "analysis/domain_dist.h"
#include "analysis/google_cache.h"
#include "analysis/ip_censorship.h"
#include <algorithm>
#include <set>

#include "analysis/osn.h"
#include "analysis/port_dist.h"
#include "analysis/proxy_compare.h"
#include "analysis/redirects.h"
#include "analysis/social_plugins.h"
#include "analysis/string_discovery.h"
#include "analysis/temporal.h"
#include "analysis/tor_analysis.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "core/study.h"
#include "geo/world.h"
#include "workload/diurnal.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::ScenarioConfig config;
    config.total_requests = 600'000;
    config.user_population = 20'000;
    config.catalog_tail = 12'000;
    config.torrent_contents = 1'500;
    study_ = new core::Study{config};
    study_->run();

    // Second study with the rare mechanisms boosted: Table 12's subnet
    // hits, Tor censorship and policy redirects number in the hundreds of
    // 751M requests and need amplification at this scale.
    workload::ScenarioConfig boosted = config;
    boosted.total_requests = 300'000;
    boosted.share_boosts = {{"israel", 120.0},
                            {"direct-ip", 8.0},
                            {"tor", 50.0},
                            {"bittorrent", 20.0},
                            {"redirect-hosts", 40.0},
                            {"facebook-pages", 40.0},
                            {"anonymizers", 12.0},
                            {"google-cache", 200.0}};
    boosted_ = new core::Study{boosted};
    boosted_->run();
  }
  static void TearDownTestSuite() {
    delete study_;
    delete boosted_;
    study_ = nullptr;
    boosted_ = nullptr;
  }

  static const LogSource& full() { return study_->datasets().full; }
  static const LogSource& boosted_full() {
    return boosted_->datasets().full;
  }
  static core::Study* study_;
  static core::Study* boosted_;
};

core::Study* StudyTest::study_ = nullptr;
core::Study* StudyTest::boosted_ = nullptr;

TEST_F(StudyTest, Table1DatasetProportions) {
  const auto& datasets = study_->datasets();
  EXPECT_GT(datasets.full.rows(), 300'000u);
  EXPECT_NEAR(datasets.sample.rows() / double(datasets.full.rows()), 0.04,
              0.005);
  EXPECT_GT(datasets.user.rows(), 1'000u);
  EXPECT_LT(datasets.user.rows(), datasets.full.rows() / 5);
  EXPECT_GT(datasets.denied.rows(), datasets.full.rows() / 25);
}

TEST_F(StudyTest, Table3TrafficSplit) {
  const auto stats = traffic_stats(full());
  EXPECT_NEAR(stats.share(stats.observed), 0.9325, 0.015);
  EXPECT_NEAR(stats.share(stats.censored()), 0.0098, 0.004);
  EXPECT_GT(stats.at(proxy::ExceptionId::kTcpError),
            stats.at(proxy::ExceptionId::kInternalError));
  EXPECT_GT(stats.at(proxy::ExceptionId::kInternalError),
            stats.at(proxy::ExceptionId::kInvalidRequest));
  EXPECT_GT(stats.at(proxy::ExceptionId::kPolicyDenied),
            stats.at(proxy::ExceptionId::kPolicyRedirect));
}

TEST_F(StudyTest, Table4TopDomains) {
  const auto allowed =
      top_domains(full(), TopDomainsOptions{proxy::TrafficClass::kAllowed});
  ASSERT_EQ(allowed.size(), 10u);
  EXPECT_EQ(allowed[0].domain, "google.com");

  const auto censored =
      top_domains(full(), TopDomainsOptions{proxy::TrafficClass::kCensored});
  ASSERT_EQ(censored.size(), 10u);
  // The paper's headline: facebook and metacafe lead the censored side
  // while facebook also ranks high on the allowed side.
  EXPECT_EQ(censored[0].domain, "facebook.com");
  EXPECT_EQ(censored[1].domain, "metacafe.com");
  EXPECT_NEAR(censored[0].share, 0.219, 0.06);
  EXPECT_NEAR(censored[1].share, 0.173, 0.05);
  bool facebook_allowed_top10 = false;
  for (const auto& entry : allowed)
    facebook_allowed_top10 |= entry.domain == "facebook.com";
  EXPECT_TRUE(facebook_allowed_top10);
}

TEST_F(StudyTest, Fig1PortsCensoredIncludes9001) {
  const auto ports = port_distribution(full(), 5);
  ASSERT_GE(ports.size(), 3u);
  EXPECT_EQ(ports[0].port, 80);  // HTTP dominates both classes
  bool https_port = false;
  for (const auto& entry : ports)
    https_port |= entry.port == 443 && entry.censored > 0;
  EXPECT_TRUE(https_port);
  // Port 9001 (Tor OR) shows up among the censored ports — visible in the
  // boosted run, as in the paper's Fig. 1 third rank.
  bool tor_port = false;
  for (const auto& entry : port_distribution(boosted_full(), 10))
    tor_port |= entry.port == 9001 && entry.censored > 0;
  EXPECT_TRUE(tor_port);
}

TEST_F(StudyTest, Fig2PowerLaw) {
  const auto dist = domain_distribution(full(), proxy::TrafficClass::kAllowed);
  EXPECT_GT(dist.unique_domains, 5'000u);
  // A large singleton tail coexists with a head receiving thousands of
  // requests — five decades of spread, as in Fig. 2.
  EXPECT_GT(dist.domains_by_request_count.at(1), dist.unique_domains / 8);
  EXPECT_GT(dist.max_requests, 10'000u);
  EXPECT_LT(dist.loglog_slope, -0.4);  // decreasing on log-log axes
}

TEST_F(StudyTest, Fig3CensoredCategories) {
  const auto dist =
      category_distribution(full(), study_->scenario().categorizer(),
                            proxy::TrafficClass::kCensored);
  ASSERT_GE(dist.size(), 5u);
  // IM and streaming must sit near the top; social networking's large
  // share is collateral (facebook plugins) as §6 shows.
  double im = 0, streaming = 0, news = 0;
  for (const auto& entry : dist) {
    if (entry.category == category::Category::kInstantMessaging)
      im = entry.share;
    if (entry.category == category::Category::kStreamingMedia)
      streaming = entry.share;
    if (entry.category == category::Category::kGeneralNews) news = entry.share;
  }
  EXPECT_GT(im, 0.05);
  EXPECT_GT(streaming, 0.10);
  EXPECT_LT(news, 0.05);  // "News Portals rank relatively low"
}

TEST_F(StudyTest, Fig4CensoredUsersMoreActive) {
  const auto stats = user_stats(study_->datasets().user);
  EXPECT_GT(stats.total_users, 500u);
  EXPECT_GT(stats.censored_users, 5u);
  const double censored_share =
      stats.censored_users / double(stats.total_users);
  EXPECT_GT(censored_share, 0.002);
  EXPECT_LT(censored_share, 0.15);
  // Fig 4b: censored users are markedly more active.
  const double active_censored = stats.active_share_censored(100.0);
  const double active_clean = stats.active_share_clean(100.0);
  EXPECT_GT(active_censored, 3.0 * active_clean);
}

TEST_F(StudyTest, Fig6RcvPeaksOnAug3Morning) {
  // Hourly bins: 5-minute bins are too noisy at this scale for peak
  // detection (the paper has ~500x our volume per bin).
  const auto series = rcv_series(
      full(), RcvOptions{{workload::at(8, 3), workload::at(8, 4)}, {3600}});
  const auto peak = series.peak_bin();
  const double peak_hour = peak * 3600 / 3600.0;
  // The Aug-3 IM surge puts the RCV peak in the morning or the smaller
  // early/ late windows (paper: 5am, 8-9:30am, 10pm).
  EXPECT_TRUE((peak_hour >= 4.5 && peak_hour <= 10.0) ||
              (peak_hour >= 21.5 && peak_hour <= 23.0))
      << "peak at hour " << peak_hour;
  // RCV roughly doubles against the daily baseline.
  double baseline = 0.0;
  int baseline_bins = 0;
  for (std::size_t k = 0; k < series.rcv.size(); ++k) {
    const double hour = static_cast<double>(k);
    if (hour >= 12.0 && hour < 16.0) {
      baseline += series.rcv[k];
      ++baseline_bins;
    }
  }
  baseline /= baseline_bins;
  EXPECT_GT(series.rcv[peak], 1.5 * baseline);
}

TEST_F(StudyTest, Table6Sg48Specialized) {
  // The paper computes the matrix on Aug 3 alone; at our scale that bin is
  // too sparse, so the test uses the whole August window — the structure
  // (SG-48 an outlier, SG-45 its closest peer, a mutually similar generic
  // trio) is the same.
  const auto similarity = censored_domain_similarity(
      full(), {{workload::at(8, 1), workload::at(8, 7)}});
  const auto& m = similarity.matrix;
  for (const std::size_t p : {1u, 2u, 4u}) {
    EXPECT_LT(m[6][p], 0.5) << "SG-48 vs " << policy::proxy_name(p);
    EXPECT_GT(m[6][3], m[6][p] * 1.2)
        << "SG-45 should be SG-48's closest peer vs "
        << policy::proxy_name(p);
  }
  // The generic trio is mutually similar.
  EXPECT_GT(m[1][2], 0.55);
  EXPECT_GT(m[2][4], 0.55);
}

TEST_F(StudyTest, Table7RedirectHosts) {
  const auto hosts = redirect_hosts(boosted_full());
  ASSERT_FALSE(hosts.empty());
  EXPECT_EQ(hosts[0].host, "upload.youtube.com");
  EXPECT_GT(hosts[0].share, 0.5);
}

TEST_F(StudyTest, Tables8And10Discovery) {
  DiscoveryOptions options;
  options.min_count = 10;  // the floor scales with dataset size
  const auto discovery = discover_censored_strings(full(), options);
  // The dominant keywords, recovered from the traffic alone.
  std::set<std::string> keywords;
  for (const auto& kw : discovery.keywords) keywords.insert(kw.text);
  for (const char* expected : {"proxy", "hotspotshield"}) {
    EXPECT_TRUE(keywords.count(expected)) << expected;
  }
  // proxy dominates (53.6% of censored traffic in the paper).
  ASSERT_FALSE(discovery.keywords.empty());
  EXPECT_EQ(discovery.keywords[0].text, "proxy");
  EXPECT_GT(discovery.keywords[0].censored * 2,
            discovery.censored_requests_total);

  // Domain side: metacafe leads, and facebook.com is NOT in the suspected
  // list (it has allowed traffic).
  ASSERT_GE(discovery.domains.size(), 10u);
  EXPECT_EQ(discovery.domains[0].text, "metacafe.com");
  for (const auto& domain : discovery.domains) {
    EXPECT_NE(domain.text, "facebook.com");
    EXPECT_NE(domain.text, "google.com");
  }

  // The rarer keywords (tens of hits out of 751M in the paper) and the
  // .il TLD need the boosted run for reliable support at test scale.
  const auto boosted_discovery =
      discover_censored_strings(boosted_full(), options);
  std::set<std::string> boosted_keywords;
  for (const auto& kw : boosted_discovery.keywords)
    boosted_keywords.insert(kw.text);
  for (const char* expected :
       {"proxy", "hotspotshield", "ultrareach", "israel", "ultrasurf"}) {
    EXPECT_TRUE(boosted_keywords.count(expected)) << expected;
  }
  bool has_il = false;
  for (const auto& domain : boosted_discovery.domains)
    has_il |= domain.text == ".il";
  EXPECT_TRUE(has_il);
}

TEST_F(StudyTest, Table11IsraelTopRatio) {
  const auto countries =
      country_censorship(boosted_full(), boosted_->scenario().geoip());
  ASSERT_GE(countries.size(), 3u);
  double israel_ratio = 0.0;
  for (const auto& entry : countries) {
    if (entry.country == geo::kIsrael) israel_ratio = entry.ratio();
  }
  EXPECT_GT(israel_ratio, 0.04);
  EXPECT_LT(israel_ratio, 0.12);  // paper: 6.69%
  // Among countries with enough direct-IP volume to measure, Israel's
  // ratio dominates (paper: 6.69% vs Kuwait's 2.02% and the rest <1%).
  for (const auto& entry : countries) {
    if (entry.country == geo::kIsrael) continue;
    if (entry.censored + entry.allowed < 100) continue;
    EXPECT_LT(entry.ratio(), israel_ratio / 1.5) << entry.country;
  }
}

TEST_F(StudyTest, Table12SubnetGroups) {
  const auto result =
      subnet_censorship(boosted_full(), geo::israeli_table12_subnets());
  ASSERT_EQ(result.size(), 5u);
  // Wholesale-blocked group: essentially no allowed requests.
  for (int i : {0, 1, 2}) {
    EXPECT_GT(result[i].censored_requests, 8u) << i;
    EXPECT_EQ(result[i].allowed_requests, 0u) << i;
  }
  // Mixed group: allowed far exceeds censored in 212.150.0.0/16.
  EXPECT_GT(result[4].allowed_requests, 4 * result[4].censored_requests);
  EXPECT_GT(result[4].censored_requests, 0u);
}

TEST_F(StudyTest, Table13OsnsMostlyOpen) {
  const auto osns = osn_censorship(full());
  std::uint64_t facebook_censored = 0, facebook_allowed = 0;
  std::uint64_t badoo_allowed = 1, netlog_allowed = 1;
  std::uint64_t twitter_censored = 0, twitter_allowed = 0;
  for (const auto& osn : osns) {
    if (osn.domain == "facebook.com") {
      facebook_censored = osn.censored;
      facebook_allowed = osn.allowed;
    } else if (osn.domain == "badoo.com") {
      badoo_allowed = osn.allowed;
    } else if (osn.domain == "netlog.com") {
      netlog_allowed = osn.allowed;
    } else if (osn.domain == "twitter.com") {
      twitter_censored = osn.censored;
      twitter_allowed = osn.allowed;
    }
  }
  EXPECT_GT(facebook_allowed, 10 * facebook_censored);  // mostly open
  EXPECT_EQ(badoo_allowed, 0u);                          // fully blocked
  EXPECT_EQ(netlog_allowed, 0u);
  EXPECT_GT(twitter_allowed, 100 * std::max<std::uint64_t>(twitter_censored, 1));
}

TEST_F(StudyTest, Table14NarrowPageTargeting) {
  const auto pages = blocked_facebook_pages(boosted_full());
  ASSERT_FALSE(pages.empty());
  bool revolution = false;
  for (const auto& page : pages) {
    if (page.page == "Syrian.Revolution") {
      revolution = true;
      // Both censored and allowed variants exist (§6's key observation).
      EXPECT_GT(page.censored, 0u);
      EXPECT_GT(page.allowed, 0u);
    }
    EXPECT_EQ(page.page.find("Syrian.Revolution.Army"), std::string::npos);
  }
  EXPECT_TRUE(revolution);
}

TEST_F(StudyTest, Table15PluginsDominateFacebookCensorship) {
  const auto stats = social_plugin_stats(full());
  EXPECT_GT(stats.plugin_censored,
            static_cast<std::uint64_t>(0.9 * stats.facebook_censored));
  ASSERT_GE(stats.elements.size(), 2u);
  EXPECT_EQ(stats.elements[0].path, "/plugins/like.php");
  EXPECT_EQ(stats.elements[0].allowed, 0u);
  EXPECT_EQ(stats.elements[1].path, "/extern/login_status.php");
}

TEST_F(StudyTest, Sec71TorFindings) {
  const auto stats =
      tor_stats(boosted_full(), boosted_->scenario().relays());
  EXPECT_GT(stats.requests, 300u);
  EXPECT_NEAR(stats.http_requests / double(stats.requests), 0.73, 0.08);
  // Only onion traffic is censored, nearly all of it on SG-44.
  EXPECT_EQ(stats.censored_http, 0u);
  if (stats.censored > 0) {
    EXPECT_GT(stats.censored_by_proxy[policy::kTorCensorProxy],
              0.9 * stats.censored);
  }
  // tcp_error rate well above the global ~2.9% (paper: 16.2%).
  EXPECT_GT(stats.tcp_errors / double(stats.requests), 0.08);
}

TEST_F(StudyTest, Sec72AnonymizerEcosystem) {
  const auto stats =
      anonymizer_stats(boosted_full(), boosted_->scenario().categorizer());
  EXPECT_GT(stats.hosts, 400u);
  // ~92.7% of hosts never filtered, carrying a minority of requests.
  EXPECT_GT(stats.never_filtered_host_share(), 0.80);
  EXPECT_LT(stats.never_filtered_request_share(), 0.60);
  // A substantial share of filtered hosts sees more allowed than censored
  // requests (paper: >50%; small counts bias ours low).
  EXPECT_GT(stats.mostly_allowed_share(), 0.30);
}

TEST_F(StudyTest, Sec73BitTorrentSailsThrough) {
  const auto stats =
      bittorrent_stats(boosted_full(), boosted_->scenario().torrents());
  EXPECT_GT(stats.announces, 1000u);
  // Nearly all announces pass the filter (the paper's 99.97%); network
  // errors are excluded from the ratio as they are not censorship.
  EXPECT_GT(stats.allowed / double(stats.allowed + stats.censored), 0.95);
  EXPECT_NEAR(stats.resolve_rate(), 0.774, 0.12);
  std::uint64_t ultrasurf = 0;
  for (const auto& tool : stats.tool_announces) {
    if (tool.tool == "UltraSurf") ultrasurf = tool.announces;
  }
  EXPECT_GT(ultrasurf, 0u);  // circumvention software moves over P2P
}

TEST_F(StudyTest, Sec74GoogleCacheServesCensoredContent) {
  const std::vector<std::string> censored_sites{".il", "aawsat.com",
                                                "free-syria.com"};
  const auto stats = google_cache_stats(boosted_full(), censored_sites);
  EXPECT_GT(stats.requests, 100u);
  EXPECT_GT(stats.allowed, stats.censored * 10);
  // Cached copies of directly-censored sites come through.
  EXPECT_FALSE(stats.censored_sites_served.empty());
}

TEST_F(StudyTest, RedirectsHaveNoFollowups) {
  EXPECT_EQ(redirect_followups(study_->datasets().user, {.window_seconds = 2}), 0u);
}

TEST_F(StudyTest, SelfRescreenReproducesObservedCensorship) {
  // Consistency check on the whole chain: replaying Dfull's URLs through
  // the deployment's own base policy must reproduce the observed
  // decisions, up to (a) the scheduled Tor rule, which is stochastic and
  // lives only on SG-44, and (b) PROXIED replays, which the impact
  // analyzer skips by design.
  const auto& syria = study_->scenario().policy();
  const auto impact = policy_impact(full(), syria.proxies[0].engine,
                                    syria.custom_categories);
  EXPECT_GT(impact.evaluated, 100'000u);
  // Everything censored in the log is censored on re-screening except the
  // few Tor denials (SG-44's schedule) — well under 1% of censored.
  EXPECT_LT(impact.newly_allowed,
            std::max<std::uint64_t>(impact.censored_observed / 100, 20));
  // Nothing allowed in the log trips the policy on re-screening.
  EXPECT_EQ(impact.newly_censored, 0u);
}

TEST_F(StudyTest, SoftwareAgentsDominateCensoredRetries) {
  // §4: software on retry loops (Skype updater, the Google toolbar)
  // inflates censored counts; their traffic is censored ~100%.
  const auto agents = agent_stats(full(), 20);
  ASSERT_FALSE(agents.empty());
  bool toolbar_seen = false, skype_seen = false;
  for (const auto& agent : agents) {
    if (agent.agent == "GoogleToolbarBB") {
      toolbar_seen = true;
      EXPECT_GT(agent.censored_share(), 0.9);
    }
    if (agent.agent == "Skype/5.3") {
      skype_seen = true;
      EXPECT_GT(agent.censored_share(), 0.9);
    }
  }
  EXPECT_TRUE(toolbar_seen);
  EXPECT_TRUE(skype_seen);
  // Ordinary browsers sit near the global ~1% censored share.
  std::uint64_t browser_requests = 0, browser_censored = 0;
  for (const auto& agent : agents) {
    if (agent.agent.find("Mozilla") == 0 ||
        agent.agent.find("Opera") == 0) {
      browser_requests += agent.requests;
      browser_censored += agent.censored;
    }
  }
  ASSERT_GT(browser_requests, 0u);
  EXPECT_LT(browser_censored / double(browser_requests), 0.03);
}

}  // namespace
