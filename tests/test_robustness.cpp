// Robustness: every analyzer must handle empty and degenerate datasets
// without crashing or dividing by zero — a downstream user will point
// these at partial or filtered logs.

#include <gtest/gtest.h>

#include "analysis/agents.h"
#include "analysis/anonymizer.h"
#include "analysis/bittorrent.h"
#include "analysis/category_dist.h"
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
#include "analysis/social_plugins.h"
#include "analysis/string_discovery.h"
#include "analysis/temporal.h"
#include "analysis/tor_analysis.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "analysis/weather.h"
#include "geo/world.h"
#include "workload/torrents.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

class EmptyDatasetTest : public ::testing::Test {
 protected:
  Dataset empty_;
  category::Categorizer categorizer_;
  geo::GeoIpDb geoip_ = geo::build_world_geoip();
  tor::RelayDirectory relays_ = tor::RelayDirectory::synthesize(10, 1);
  workload::TorrentRegistry torrents_{50, 1};
};

TEST_F(EmptyDatasetTest, TrafficStats) {
  const auto stats = traffic_stats(empty_);
  EXPECT_EQ(stats.total, 0u);
  EXPECT_EQ(stats.share(0), 0.0);
}

TEST_F(EmptyDatasetTest, TopDomainsAndClassCounts) {
  EXPECT_TRUE(
      top_domains(empty_, TopDomainsOptions{proxy::TrafficClass::kCensored})
          .empty());
  const std::vector<std::string> domains{"facebook.com"};
  const auto counts = domain_class_counts(empty_, domains);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].censored, 0u);
}

TEST_F(EmptyDatasetTest, Distributions) {
  EXPECT_TRUE(port_distribution(empty_).empty());
  const auto dist = domain_distribution(empty_, proxy::TrafficClass::kAllowed);
  EXPECT_EQ(dist.unique_domains, 0u);
  EXPECT_EQ(dist.loglog_slope, 0.0);
  EXPECT_TRUE(category_distribution(empty_, categorizer_,
                                    proxy::TrafficClass::kCensored)
                  .empty());
}

TEST_F(EmptyDatasetTest, UsersAndTemporal) {
  const auto users = user_stats(empty_);
  EXPECT_EQ(users.total_users, 0u);
  EXPECT_EQ(users.active_share_censored(100.0), 0.0);

  const auto series =
      traffic_time_series(empty_, TrafficSeriesOptions{{0, 3600}, {300}});
  EXPECT_EQ(series.allowed.total(), 0u);
  EXPECT_TRUE(series.normalized_allowed().size() == 12);

  const auto rcv = rcv_series(empty_, RcvOptions{{0, 3600}, {300}});
  for (const double value : rcv.rcv) EXPECT_EQ(value, 0.0);
  EXPECT_EQ(rcv.peak_bin(), 0u);
}

TEST_F(EmptyDatasetTest, ProxyComparison) {
  const auto load = proxy_load_series(empty_, ProxyLoadOptions{{0, 7200}, {3600}});
  EXPECT_EQ(load.total_share(0, 0), 0.0);
  const auto sim = censored_domain_similarity(empty_, SimilarityOptions{{0, 3600}});
  EXPECT_EQ(sim.matrix[0][0], 1.0);
  EXPECT_EQ(sim.matrix[0][1], 0.0);  // all-zero vectors
  const auto labels = proxy_category_labels(empty_);
  EXPECT_TRUE(labels.labels[0].empty());
}

TEST_F(EmptyDatasetTest, RedirectsAndDiscovery) {
  EXPECT_TRUE(redirect_hosts(empty_).empty());
  EXPECT_EQ(redirect_followups(empty_), 0u);
  const auto discovery = discover_censored_strings(empty_);
  EXPECT_TRUE(discovery.keywords.empty());
  EXPECT_TRUE(discovery.domains.empty());
  EXPECT_EQ(discovery.censored_requests_total, 0u);
}

TEST_F(EmptyDatasetTest, IpAndOsn) {
  EXPECT_TRUE(country_censorship(empty_, geoip_).empty());
  const auto subnets =
      subnet_censorship(empty_, geo::israeli_table12_subnets());
  EXPECT_EQ(subnets.size(), 5u);
  EXPECT_EQ(direct_ip_requests(empty_), 0u);
  EXPECT_EQ(osn_censorship(empty_).size(),
            studied_social_networks().size());
  EXPECT_TRUE(blocked_facebook_pages(empty_).empty());
  const auto plugins = social_plugin_stats(empty_);
  EXPECT_EQ(plugins.facebook_censored, 0u);
  EXPECT_EQ(plugins.elements[0].censored_share, 0.0);
}

TEST_F(EmptyDatasetTest, EvasionChannels) {
  const auto tor = tor_stats(empty_, relays_);
  EXPECT_EQ(tor.requests, 0u);
  const auto rfilter = rfilter_series(empty_, relays_, 2, 0, 7200);
  EXPECT_EQ(rfilter.censored_relay_count, 0u);
  const auto anon = anonymizer_stats(empty_, categorizer_);
  EXPECT_EQ(anon.hosts, 0u);
  EXPECT_EQ(anon.mostly_allowed_share(), 0.0);
  const auto bt = bittorrent_stats(empty_, torrents_);
  EXPECT_EQ(bt.announces, 0u);
  EXPECT_EQ(bt.resolve_rate(), 0.0);
  const std::vector<std::string> sites{".il"};
  const auto cache = google_cache_stats(empty_, sites);
  EXPECT_EQ(cache.requests, 0u);
}

TEST_F(EmptyDatasetTest, ExtensionAnalyzers) {
  const auto https = https_stats(empty_);
  EXPECT_EQ(https.share_of_traffic(), 0.0);
  EXPECT_EQ(https.censored_ip_share(), 0.0);

  policy::PolicyEngine engine;
  policy::CustomCategoryList custom;
  const auto impact = policy_impact(empty_, engine, custom);
  EXPECT_EQ(impact.evaluated, 0u);
  EXPECT_EQ(impact.observed_rate(), 0.0);

  const auto agents = agent_stats(empty_);
  EXPECT_TRUE(agents.empty());

  const std::vector<std::string> keywords{"proxy"};
  const auto weather = keyword_weather(empty_, keywords, WeatherOptions{{0, 3600}});
  EXPECT_EQ(weather[0].active_bins(), 0u);
}

TEST_F(EmptyDatasetTest, SamplingAuditThrowsOnEmpty) {
  // traffic_stats over an empty sample makes the CI undefined — the audit
  // surfaces that as the documented proportion_confidence contract.
  EXPECT_THROW(sampling_audit(empty_, empty_), std::invalid_argument);
}

TEST(DegenerateDataset, SingleRecordEverywhere) {
  Dataset dataset;
  proxy::LogRecord record;
  record.time = 1312329600;
  record.url = *net::Url::parse("http://skype.com/");
  record.filter_result = proxy::FilterResult::kDenied;
  record.exception = proxy::ExceptionId::kPolicyDenied;
  dataset.add(record);

  EXPECT_EQ(traffic_stats(dataset).censored(), 1u);
  const auto top =
      top_domains(dataset, TopDomainsOptions{proxy::TrafficClass::kCensored});
  ASSERT_EQ(top.size(), 1u);
  EXPECT_NEAR(top[0].share, 1.0, 1e-12);
  const auto rcv =
      rcv_series(dataset, RcvOptions{{1312329600, 1312329600 + 300}, {300}});
  EXPECT_NEAR(rcv.rcv[0], 1.0, 1e-12);
}

}  // namespace
