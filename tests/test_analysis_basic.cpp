// Analyzers over hand-built datasets: traffic stats, top domains, port and
// domain distributions, category distribution, user stats.

#include <gtest/gtest.h>

#include "analysis/category_dist.h"
#include "analysis/domain_dist.h"
#include "analysis/port_dist.h"
#include "analysis/top_domains.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

constexpr std::int64_t kT0 = 1312329600;  // 2011-08-03 00:00

proxy::LogRecord rec(const char* url_text,
                     proxy::ExceptionId exception = proxy::ExceptionId::kNone,
                     proxy::FilterResult result =
                         proxy::FilterResult::kObserved,
                     std::uint64_t user = 1, std::int64_t time = kT0) {
  proxy::LogRecord record;
  record.time = time;
  record.user_hash = user;
  record.method = "GET";
  record.url = *net::Url::parse(url_text);
  record.filter_result =
      exception == proxy::ExceptionId::kNone ? result
                                             : proxy::FilterResult::kDenied;
  if (result == proxy::FilterResult::kProxied)
    record.filter_result = proxy::FilterResult::kProxied;
  record.exception = exception;
  return record;
}

TEST(TrafficStats, CountsEveryBucket) {
  Dataset dataset;
  dataset.add(rec("http://a.com/"));
  dataset.add(rec("http://a.com/"));
  dataset.add(rec("http://b.com/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://c.com/", proxy::ExceptionId::kPolicyRedirect));
  dataset.add(rec("http://d.com/", proxy::ExceptionId::kTcpError));
  dataset.add(rec("http://e.com/", proxy::ExceptionId::kNone,
                  proxy::FilterResult::kProxied));

  const auto stats = traffic_stats(dataset);
  EXPECT_EQ(stats.total, 6u);
  EXPECT_EQ(stats.observed, 2u);
  EXPECT_EQ(stats.proxied, 1u);
  EXPECT_EQ(stats.denied, 3u);
  EXPECT_EQ(stats.censored(), 2u);
  EXPECT_EQ(stats.errors(), 1u);
  EXPECT_EQ(stats.at(proxy::ExceptionId::kTcpError), 1u);
  EXPECT_NEAR(stats.share(stats.censored()), 2.0 / 6.0, 1e-12);
}

TEST(TopDomains, RanksByCountAndAggregatesSubdomains) {
  Dataset dataset;
  for (int i = 0; i < 5; ++i) dataset.add(rec("http://www.a.com/"));
  for (int i = 0; i < 3; ++i) dataset.add(rec("http://cdn.a.com/x"));
  for (int i = 0; i < 4; ++i) dataset.add(rec("http://b.com/"));
  dataset.add(rec("http://x.com/", proxy::ExceptionId::kPolicyDenied));

  const auto top =
      top_domains(dataset, TopDomainsOptions{proxy::TrafficClass::kAllowed});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].domain, "a.com");
  EXPECT_EQ(top[0].count, 8u);
  EXPECT_NEAR(top[0].share, 8.0 / 12.0, 1e-12);
  EXPECT_EQ(top[1].domain, "b.com");

  const auto censored =
      top_domains(dataset, TopDomainsOptions{proxy::TrafficClass::kCensored});
  ASSERT_EQ(censored.size(), 1u);
  EXPECT_EQ(censored[0].domain, "x.com");
}

TEST(TopDomains, WindowRestricts) {
  Dataset dataset;
  dataset.add(rec("http://early.com/", proxy::ExceptionId::kNone,
                  proxy::FilterResult::kObserved, 1, kT0));
  dataset.add(rec("http://late.com/", proxy::ExceptionId::kNone,
                  proxy::FilterResult::kObserved, 1, kT0 + 7200));
  const auto top = top_domains(
      dataset, TopDomainsOptions{proxy::TrafficClass::kAllowed, 10,
                                 TimeRange{kT0, kT0 + 3600}});
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].domain, "early.com");
}

TEST(TopDomains, KLimitsOutput) {
  Dataset dataset;
  for (int i = 0; i < 30; ++i)
    dataset.add(rec(("http://d" + std::to_string(i) + ".com/").c_str()));
  EXPECT_EQ(
      top_domains(dataset, TopDomainsOptions{proxy::TrafficClass::kAllowed})
          .size(),
      10u);
}

TEST(DomainClassCounts, SuffixMatchingIncludesTld) {
  Dataset dataset;
  dataset.add(rec("http://www.panet.co.il/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://walla.co.il/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://facebook.com/"));
  dataset.add(rec("http://www.facebook.com/p",
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.facebook.com/q", proxy::ExceptionId::kNone,
                  proxy::FilterResult::kProxied));

  const std::vector<std::string> domains{".il", "facebook.com"};
  const auto counts = domain_class_counts(dataset, domains);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].censored, 2u);
  EXPECT_EQ(counts[1].censored, 1u);
  EXPECT_EQ(counts[1].allowed, 1u);
  EXPECT_EQ(counts[1].proxied, 1u);
}

TEST(PortDistribution, SplitsAllowedAndCensored) {
  Dataset dataset;
  dataset.add(rec("http://a.com/"));                        // port 80 allowed
  dataset.add(rec("https://b.com/"));                       // 443 allowed
  dataset.add(rec("http://c.com/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("tcp://1.2.3.4:9001",
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://d.com/", proxy::ExceptionId::kTcpError));  // error

  const auto ports = port_distribution(dataset);
  ASSERT_GE(ports.size(), 3u);
  // Ranked by censored count: 80 and 9001 tie at 1, port order breaks ties.
  EXPECT_EQ(ports[0].port, 80);
  EXPECT_EQ(ports[0].censored, 1u);
  EXPECT_EQ(ports[0].allowed, 1u);
  EXPECT_EQ(ports[1].port, 9001);
  // Errors are in neither column.
  std::uint64_t total = 0;
  for (const auto& entry : ports) total += entry.allowed + entry.censored;
  EXPECT_EQ(total, 4u);
}

TEST(DomainDistribution, FrequencyOfFrequencies) {
  Dataset dataset;
  for (int i = 0; i < 8; ++i) dataset.add(rec("http://big.com/"));
  dataset.add(rec("http://one1.com/"));
  dataset.add(rec("http://one2.com/"));
  dataset.add(rec("http://one3.com/"));

  const auto dist =
      domain_distribution(dataset, proxy::TrafficClass::kAllowed);
  EXPECT_EQ(dist.unique_domains, 4u);
  EXPECT_EQ(dist.max_requests, 8u);
  EXPECT_EQ(dist.domains_by_request_count.at(1), 3u);
  EXPECT_EQ(dist.domains_by_request_count.at(8), 1u);
}

TEST(CategoryDistribution, RanksCensoredCategories) {
  category::Categorizer categorizer;
  categorizer.add("skype.com", category::Category::kInstantMessaging);
  categorizer.add("metacafe.com", category::Category::kStreamingMedia);

  Dataset dataset;
  for (int i = 0; i < 3; ++i)
    dataset.add(rec("http://skype.com/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.metacafe.com/w",
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://unknown.net/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://skype.com/"));  // allowed: not counted here

  const auto dist = category_distribution(dataset, categorizer,
                                          proxy::TrafficClass::kCensored);
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_EQ(dist[0].category, category::Category::kInstantMessaging);
  EXPECT_EQ(dist[0].requests, 3u);
  EXPECT_NEAR(dist[0].share, 0.6, 1e-12);
  EXPECT_EQ(dist[2].requests, 1u);
}

TEST(CategorizeDomains, Table9Shape) {
  category::Categorizer categorizer;
  categorizer.add("skype.com", category::Category::kInstantMessaging);
  categorizer.add("live.com", category::Category::kInstantMessaging);
  categorizer.add("aawsat.com", category::Category::kGeneralNews);

  Dataset dataset;
  for (int i = 0; i < 4; ++i)
    dataset.add(rec("http://skype.com/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://aawsat.com/", proxy::ExceptionId::kPolicyDenied));

  const std::vector<std::string> domains{"skype.com", "live.com",
                                         "aawsat.com", "mystery.info"};
  const auto table = categorize_domains(dataset, categorizer, domains);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].category, category::Category::kInstantMessaging);
  EXPECT_EQ(table[0].domains, 2u);
  EXPECT_EQ(table[0].censored_requests, 4u);
  // The uncategorized domain lands in NA with zero requests.
  EXPECT_EQ(table[2].category, category::Category::kUncategorized);
  EXPECT_EQ(table[2].domains, 1u);
}

TEST(UserStats, SeparatesCensoredUsers) {
  Dataset dataset;
  // User 1: active, one censored request.
  for (int i = 0; i < 150; ++i)
    dataset.add(rec("http://a.com/", proxy::ExceptionId::kNone,
                    proxy::FilterResult::kObserved, 1));
  dataset.add(rec("http://skype.com/", proxy::ExceptionId::kPolicyDenied,
                  proxy::FilterResult::kDenied, 1));
  // User 2: quiet, clean.
  for (int i = 0; i < 5; ++i)
    dataset.add(rec("http://a.com/", proxy::ExceptionId::kNone,
                    proxy::FilterResult::kObserved, 2));
  // Suppressed identity rows are ignored.
  dataset.add(rec("http://a.com/", proxy::ExceptionId::kNone,
                  proxy::FilterResult::kObserved, 0));

  const auto stats = user_stats(dataset);
  EXPECT_EQ(stats.total_users, 2u);
  EXPECT_EQ(stats.censored_users, 1u);
  EXPECT_EQ(stats.users_by_censored_count.at(1), 1u);
  EXPECT_NEAR(stats.active_share_censored(100.0), 1.0, 1e-12);
  EXPECT_NEAR(stats.active_share_clean(100.0), 0.0, 1e-12);
}

TEST(UserStats, AgentDistinguishesUsers) {
  // Same c-ip hash, different agents => two users (the paper's NAT note).
  Dataset dataset;
  proxy::LogRecord a = rec("http://a.com/");
  a.user_agent = "Firefox";
  proxy::LogRecord b = rec("http://a.com/");
  b.user_agent = "MSIE";
  dataset.add(a);
  dataset.add(b);
  EXPECT_EQ(user_stats(dataset).total_users, 2u);
}

}  // namespace
