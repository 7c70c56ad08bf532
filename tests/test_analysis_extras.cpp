// The extension analyzers: HTTPS audit / interception, policy-impact
// re-screening, sampling-accuracy audit, figure export, and the Dec-2012
// Tor escalation.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "analysis/agents.h"
#include "analysis/export.h"
#include "analysis/https_audit.h"
#include "analysis/impact.h"
#include "analysis/sampling.h"
#include "analysis/tor_analysis.h"
#include "analysis/weather.h"
#include "policy/syria.h"
#include "proxy/sg_proxy.h"
#include "tor/relay_directory.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

constexpr std::int64_t kT0 = 1312329600;

proxy::LogRecord rec(const char* url_text,
                     proxy::ExceptionId exception = proxy::ExceptionId::kNone,
                     const char* method = "GET") {
  proxy::LogRecord record;
  record.time = kT0;
  record.user_hash = 1;
  record.method = method;
  record.url = *net::Url::parse(url_text);
  record.filter_result = exception == proxy::ExceptionId::kNone
                             ? proxy::FilterResult::kObserved
                             : proxy::FilterResult::kDenied;
  record.exception = exception;
  return record;
}

// --- HTTPS audit -------------------------------------------------------------

TEST(HttpsAudit, CountsAndShares) {
  Dataset dataset;
  dataset.add(rec("http://a.com/"));
  // CONNECT tunnels expose no path — hence no trailing '/' on these.
  dataset.add(rec("https://mail.google.com", proxy::ExceptionId::kNone,
                  "CONNECT"));
  auto censored_ip = rec("https://84.229.1.2", proxy::ExceptionId::kNone,
                         "CONNECT");
  censored_ip.filter_result = proxy::FilterResult::kDenied;
  censored_ip.exception = proxy::ExceptionId::kPolicyDenied;
  dataset.add(censored_ip);
  auto censored_host = rec("https://conn.skype.com",
                           proxy::ExceptionId::kNone, "CONNECT");
  censored_host.filter_result = proxy::FilterResult::kDenied;
  censored_host.exception = proxy::ExceptionId::kPolicyDenied;
  dataset.add(censored_host);

  const auto stats = https_stats(dataset);
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.censored, 2u);
  EXPECT_EQ(stats.censored_ip_dest, 1u);
  EXPECT_NEAR(stats.censored_ip_share(), 0.5, 1e-12);
  EXPECT_NEAR(stats.share_of_traffic(), 0.75, 1e-12);
  EXPECT_FALSE(stats.interception_evidence());
}

TEST(HttpsAudit, DetectsInterception) {
  Dataset dataset;
  auto record = rec("https://www.facebook.com/", proxy::ExceptionId::kNone,
                    "CONNECT");
  record.url.path = "/Syrian.Revolution";  // path visible => MITM signature
  dataset.add(record);
  const auto stats = https_stats(dataset);
  EXPECT_EQ(stats.with_uri_fields, 1u);
  EXPECT_TRUE(stats.interception_evidence());
}

TEST(HttpsAudit, SgProxyInterceptionEndToEnd) {
  const auto relays = tor::RelayDirectory::synthesize(20, 1);
  const auto syria = policy::build_syria_policy(relays, 3);

  proxy::Request request;
  request.time = kT0;
  request.user_id = 1;
  request.method = "CONNECT";
  request.url = *net::Url::parse("https://www.facebook.com");
  request.inner_path = "/Syrian.Revolution";
  request.inner_query = "ref=ts";

  // Without interception: tunnel passes, no URI fields in the log.
  proxy::SgProxyConfig plain;
  plain.error_rates = proxy::ErrorRates{0, 0, 0, 0, 0, 0, 0, 0};
  proxy::SgProxy off{0, &syria.proxies[0], &syria.custom_categories, plain,
                     util::Rng{1}};
  const auto passed = off.process(request);
  EXPECT_EQ(passed.exception, proxy::ExceptionId::kNone);
  EXPECT_TRUE(passed.url.path.empty());

  // With interception: the categorized page becomes visible and redirects.
  proxy::SgProxyConfig mitm = plain;
  mitm.intercept_https = true;
  proxy::SgProxy on{0, &syria.proxies[0], &syria.custom_categories, mitm,
                    util::Rng{1}};
  const auto caught = on.process(request);
  EXPECT_EQ(caught.exception, proxy::ExceptionId::kPolicyRedirect);
  EXPECT_EQ(caught.url.path, "/Syrian.Revolution");
}

// --- Policy impact ------------------------------------------------------------

TEST(PolicyImpact, CountsDeltas) {
  Dataset dataset;
  dataset.add(rec("http://news-site.net/article.html"));           // allowed
  dataset.add(rec("http://other.org/"));                            // allowed
  dataset.add(rec("http://blocked.net/", proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://error.net/", proxy::ExceptionId::kTcpError));

  // Hypothetical policy: block news-site.net, unblock everything else.
  policy::PolicyEngine engine;
  engine.add({policy::DomainRule{"news-site.net"},
              policy::PolicyAction::kDeny, "d"});
  policy::CustomCategoryList custom;

  const auto impact = policy_impact(dataset, engine, custom);
  EXPECT_EQ(impact.evaluated, 3u);  // the error row is skipped
  EXPECT_EQ(impact.censored_observed, 1u);
  EXPECT_EQ(impact.censored_hypothetical, 1u);
  EXPECT_EQ(impact.newly_censored, 1u);
  EXPECT_EQ(impact.newly_allowed, 1u);
  ASSERT_EQ(impact.top_newly_censored.size(), 1u);
  EXPECT_EQ(impact.top_newly_censored[0].domain, "news-site.net");
}

TEST(PolicyImpact, EmptyPolicyUnblocksEverything) {
  Dataset dataset;
  dataset.add(rec("http://blocked.net/", proxy::ExceptionId::kPolicyDenied));
  policy::PolicyEngine engine;
  policy::CustomCategoryList custom;
  const auto impact = policy_impact(dataset, engine, custom);
  EXPECT_EQ(impact.newly_allowed, 1u);
  EXPECT_EQ(impact.hypothetical_rate(), 0.0);
  EXPECT_NEAR(impact.observed_rate(), 1.0, 1e-12);
}

TEST(PolicyImpact, UsesDestIpForSubnetRules) {
  Dataset dataset;
  auto record = rec("http://84.229.9.9/");
  record.dest_ip = net::Ipv4Addr{84, 229, 9, 9};
  dataset.add(record);
  policy::PolicyEngine engine;
  engine.add({policy::SubnetRule{*net::Ipv4Subnet::parse("84.229.0.0/16")},
              policy::PolicyAction::kDeny, "s"});
  policy::CustomCategoryList custom;
  const auto impact = policy_impact(dataset, engine, custom);
  EXPECT_EQ(impact.newly_censored, 1u);
}

// --- Sampling audit -----------------------------------------------------------

TEST(SamplingAudit, CoversTrueProportions) {
  Dataset full;
  util::Rng rng{5};
  for (int i = 0; i < 50'000; ++i) {
    full.add(rng.bernoulli(0.01)
                 ? rec("http://blocked.net/",
                       proxy::ExceptionId::kPolicyDenied)
                 : rec("http://ok.net/"));
  }
  const auto derived = derive_sources(full, 9);
  const auto checks = sampling_audit(derived.full, derived.sample);
  ASSERT_EQ(checks.size(), 5u);
  for (const auto& check : checks) {
    EXPECT_TRUE(check.covered) << check.metric << ": full "
                               << check.full_proportion << " interval ["
                               << check.interval.lo << ", "
                               << check.interval.hi << "]";
  }
}

TEST(SamplingAudit, IntervalWidthScalesWithSampleSize) {
  Dataset full;
  for (int i = 0; i < 40'000; ++i) full.add(rec("http://ok.net/"));
  const auto derived = derive_sources(full, 9);
  const auto checks = sampling_audit(derived.full, derived.sample);
  // With ~1,600 sampled rows, the 95% half-width for p~0 is tiny but the
  // general bound 1.96*sqrt(0.25/n) holds for all metrics.
  for (const auto& check : checks) {
    EXPECT_LE(check.interval.half_width,
              1.96 * std::sqrt(0.25 / double(derived.sample.rows())) + 1e-9);
  }
}

// --- Export -------------------------------------------------------------------

TEST(Export, PortTsvShape) {
  std::ostringstream out;
  export_port_distribution(out, {{80, 100, 5}, {443, 50, 2}});
  EXPECT_EQ(out.str(), "#port\tallowed\tcensored\n80\t100\t5\n443\t50\t2\n");
}

TEST(Export, CdfMonotone) {
  std::ostringstream out;
  export_cdf(out, {3.0, 1.0, 2.0, 2.0});
  const std::string text = out.str();
  EXPECT_NE(text.find("#x\tcdf"), std::string::npos);
  EXPECT_NE(text.find("1\t0.25"), std::string::npos);
  EXPECT_NE(text.find("3\t1"), std::string::npos);
}

TEST(Export, UserActivityCdfColumns) {
  UserStats stats;
  stats.requests_per_censored_user = {50.0, 200.0};
  stats.requests_per_clean_user = {5.0, 10.0, 20.0};
  std::ostringstream out;
  export_user_activity_cdf(out, stats);
  // Header + one row per distinct request count.
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
}

TEST(Export, TimeSeriesColumns) {
  TrafficTimeSeries series{util::BinnedCounter{1000, 60, 2},
                           util::BinnedCounter{1000, 60, 2}};
  series.allowed.add(1010);
  series.allowed.add(1065);
  series.censored.add(1070);
  std::ostringstream out;
  export_time_series(out, series);
  EXPECT_EQ(out.str(),
            "#unix_time\tallowed\tcensored\n1000\t1\t0\n1060\t1\t1\n");
}

TEST(Export, RcvColumns) {
  RcvSeries series{500, 30, {0.25, 0.0}};
  std::ostringstream out;
  export_rcv(out, series);
  EXPECT_EQ(out.str(), "#unix_time\trcv\n500\t0.25\n530\t0\n");
}

TEST(Export, RfilterIncludesTrafficFlag) {
  RfilterSeries series;
  series.origin = 0;
  series.bin_seconds = 3600;
  series.rfilter = {1.0, 0.5};
  series.has_traffic = {true, false};
  std::ostringstream out;
  export_rfilter(out, series);
  EXPECT_EQ(out.str(),
            "#unix_time\trfilter\thas_traffic\n0\t1\t1\n3600\t0.5\t0\n");
}

TEST(Export, HourlySeries) {
  util::BinnedCounter series{0, 3600, 2};
  series.add(100);
  series.add(3700);
  series.add(3701);
  std::ostringstream out;
  export_hourly(out, series);
  EXPECT_EQ(out.str(), "#unix_time\trequests\n0\t1\n3600\t2\n");
}

TEST(Export, ProxyLoadSharesRows) {
  ProxyLoadSeries series;
  series.origin = 0;
  series.bin_seconds = 3600;
  for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
    series.total[p].assign(1, p == 0 ? 3 : 1);  // SG-42 triple share
    series.censored[p].assign(1, 0);
  }
  std::ostringstream out;
  export_proxy_load(out, series, /*censored=*/false);
  const std::string text = out.str();
  EXPECT_NE(text.find("SG-42"), std::string::npos);
  EXPECT_NE(text.find("0.333333"), std::string::npos);  // 3 of 9
}

// --- Dec-2012 escalation --------------------------------------------------------

TEST(Dec2012, BlocksRelaysAndDirectoriesEverywhere) {
  const auto relays = tor::RelayDirectory::synthesize(60, 4);
  auto syria = policy::build_syria_policy(relays, 5);
  const auto added = policy::apply_december_2012_update(syria, relays);
  EXPECT_EQ(added, 2 * policy::kProxyCount);

  util::Rng rng{2};
  for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
    for (const auto& relay : relays.relays()) {
      net::Url onion;
      onion.scheme = net::Scheme::kTcp;
      onion.host = relay.address.to_string();
      onion.port = relay.or_port;
      policy::FilterRequest request;
      request.url = &onion;
      request.dest_ip = relay.address;
      request.time = kT0;
      EXPECT_TRUE(
          syria.proxies[p].engine.evaluate(request, rng).censored());
      if (relay.dir_port == 0) continue;
      net::Url dir;
      dir.host = relay.address.to_string();
      dir.port = relay.dir_port;
      dir.path = "/tor/server/authority.z";
      policy::FilterRequest dir_request;
      dir_request.url = &dir;
      dir_request.dest_ip = relay.address;
      dir_request.time = kT0;
      EXPECT_TRUE(
          syria.proxies[p].engine.evaluate(dir_request, rng).censored());
    }
  }
}

TEST(Dec2012, BridgesStillReachable) {
  // Bridges are unlisted relays: endpoints absent from the consensus the
  // censor scraped. Even the Dec-2012 blanket rules miss them (except on
  // the default OR port, which bridges avoid for exactly this reason).
  const auto relays = tor::RelayDirectory::synthesize(60, 4);
  const auto bridges = tor::RelayDirectory::synthesize(20, 777);
  auto syria = policy::build_syria_policy(relays, 5);
  policy::apply_december_2012_update(syria, relays);
  util::Rng rng{2};
  std::size_t reachable = 0, total = 0;
  for (const auto& bridge : bridges.relays()) {
    if (relays.contains(bridge.address, bridge.or_port)) continue;  // clash
    if (bridge.or_port == 9001) continue;  // blanket port rule catches it
    ++total;
    net::Url onion;
    onion.scheme = net::Scheme::kTcp;
    onion.host = bridge.address.to_string();
    onion.port = bridge.or_port;
    policy::FilterRequest request;
    request.url = &onion;
    request.dest_ip = bridge.address;
    request.time = kT0;
    if (!syria.proxies[0].engine.evaluate(request, rng).censored())
      ++reachable;
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(reachable, total);
}

// --- Agent stats --------------------------------------------------------------

TEST(Agents, RanksByCensoredAndFiltersRareAgents) {
  Dataset dataset;
  auto add_with_agent = [&](const char* agent, bool censored, int count) {
    for (int i = 0; i < count; ++i) {
      auto record = rec("http://x.com/",
                        censored ? proxy::ExceptionId::kPolicyDenied
                                 : proxy::ExceptionId::kNone);
      record.user_agent = agent;
      dataset.add(record);
    }
  };
  add_with_agent("Skype/5.3", true, 30);
  add_with_agent("Mozilla/5.0", false, 100);
  add_with_agent("Mozilla/5.0", true, 2);
  add_with_agent("RareBot", true, 3);  // below min_requests

  const auto agents = analysis::agent_stats(dataset, 10);
  ASSERT_EQ(agents.size(), 2u);
  EXPECT_EQ(agents[0].agent, "Skype/5.3");
  EXPECT_NEAR(agents[0].censored_share(), 1.0, 1e-12);
  EXPECT_EQ(agents[1].agent, "Mozilla/5.0");
  EXPECT_EQ(agents[1].requests, 102u);
  EXPECT_NEAR(agents[1].censored_share(), 2.0 / 102.0, 1e-12);
}

// --- Keyword weather --------------------------------------------------------

TEST(Weather, TracksPerBinIntensity) {
  Dataset dataset;
  auto add_at = [&](const char* url, std::int64_t t, bool censored) {
    auto record = rec(url, censored ? proxy::ExceptionId::kPolicyDenied
                                    : proxy::ExceptionId::kNone);
    record.time = t;
    dataset.add(record);
  };
  // Hour 0: keyword matched twice, censored twice. Hour 1: matched twice,
  // censored once (inconsistent window). Hour 2: keyword absent.
  add_at("http://a.com/x/proxy.php", kT0 + 100, true);
  add_at("http://b.com/proxy", kT0 + 200, true);
  add_at("http://a.com/x/proxy.php", kT0 + 3700, true);
  add_at("http://c.com/PROXY/frame", kT0 + 3800, false);
  add_at("http://a.com/clean", kT0 + 7300, false);

  const std::vector<std::string> keywords{"proxy"};
  const auto reports =
      analysis::keyword_weather(dataset, keywords, {{kT0, kT0 + 3 * 3600}});
  ASSERT_EQ(reports.size(), 1u);
  const auto& report = reports[0];
  EXPECT_EQ(report.matched[0], 2u);
  EXPECT_EQ(report.censored[0], 2u);
  EXPECT_NEAR(report.intensity(0), 1.0, 1e-12);
  EXPECT_EQ(report.matched[1], 2u);  // case-insensitive match counts
  EXPECT_NEAR(report.intensity(1), 0.5, 1e-12);
  EXPECT_EQ(report.matched[2], 0u);
  EXPECT_EQ(report.intensity(2), 0.0);
  EXPECT_EQ(report.active_bins(), 2u);
  EXPECT_EQ(report.fully_enforced_bins(), 1u);
}

TEST(Weather, ErrorsAndProxiedExcluded) {
  Dataset dataset;
  auto err = rec("http://a.com/proxy", proxy::ExceptionId::kTcpError);
  dataset.add(err);
  auto proxied = rec("http://a.com/proxy");
  proxied.filter_result = proxy::FilterResult::kProxied;
  dataset.add(proxied);
  const std::vector<std::string> keywords{"proxy"};
  const auto reports =
      analysis::keyword_weather(dataset, keywords, {{kT0, kT0 + 3600}});
  EXPECT_EQ(reports[0].matched[0], 0u);
}

TEST(Weather, KeywordsAcrossUrlPiecesAndEmptyKeyword) {
  Dataset dataset;
  auto add_at = [&](const char* url, bool censored) {
    auto record = rec(url, censored ? proxy::ExceptionId::kPolicyDenied
                                    : proxy::ExceptionId::kNone);
    record.time = kT0 + 10;
    dataset.add(record);
  };
  add_at("http://a.com/x?y=1", true);       // "x?y" spans path and query
  add_at("http://a.com/proxyproxy", false);  // twice in one row counts once
  add_at("http://b.com/", false);
  const std::vector<std::string> keywords{"X?Y", "proxy", "", "a.com/"};
  const auto reports =
      analysis::keyword_weather(dataset, keywords, {{kT0, kT0 + 3600}});
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].keyword, "x?y");
  EXPECT_EQ(reports[0].matched[0], 1u);
  EXPECT_EQ(reports[0].censored[0], 1u);
  EXPECT_EQ(reports[1].matched[0], 1u);
  EXPECT_EQ(reports[2].matched[0], 3u);  // the empty keyword matches every row
  EXPECT_EQ(reports[2].censored[0], 1u);
  EXPECT_EQ(reports[3].matched[0], 2u);  // spans host and path
}

TEST(Weather, RejectsBadWindow) {
  Dataset dataset;
  const std::vector<std::string> keywords{"proxy"};
  EXPECT_THROW(analysis::keyword_weather(dataset, keywords, {{10, 10}}),
               std::invalid_argument);
}

TEST(Dec2012, OrdinaryTrafficUnaffected) {
  const auto relays = tor::RelayDirectory::synthesize(60, 4);
  auto syria = policy::build_syria_policy(relays, 5);
  policy::apply_december_2012_update(syria, relays);
  util::Rng rng{2};
  const auto url = *net::Url::parse("http://example.com/");
  policy::FilterRequest request;
  request.url = &url;
  request.time = kT0;
  EXPECT_FALSE(syria.proxies[0].engine.evaluate(request, rng).censored());
}

}  // namespace
