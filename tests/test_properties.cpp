// Property-style invariants across random inputs: URL round-trips, CSV
// fuzz, cache behaviour under churn, proxy pipeline invariants, policy
// determinism, and discovery soundness on randomized ground truth.

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string_view>

#include "analysis/string_discovery.h"
#include "policy/syria.h"
#include "proxy/farm.h"
#include "proxy/log_io.h"
#include "tor/relay_directory.h"
#include "util/csv.h"
#include "util/simtime.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/textgen.h"

namespace {

using namespace syrwatch;

// --- URL round-trip fuzz --------------------------------------------------------

class UrlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UrlFuzz, ParseRenderRoundTrip) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 2000; ++i) {
    net::Url url;
    url.scheme = rng.bernoulli(0.8)
                     ? net::Scheme::kHttp
                     : (rng.bernoulli(0.5) ? net::Scheme::kHttps
                                           : net::Scheme::kTcp);
    url.host = "www." + workload::token(rng, 1 + int(rng.uniform(12))) +
               ".com";
    url.port = static_cast<std::uint16_t>(rng.uniform_range(1, 65535));
    if (rng.bernoulli(0.7))
      url.path = "/" + workload::token(rng, int(rng.uniform(20)));
    if (rng.bernoulli(0.5))
      url.query = "a=" + workload::token(rng, int(rng.uniform(15)));
    // Parse normalizes a query-without-path to "/" (HTTP has no pathless
    // request-target), so only normalized values round-trip.
    if (url.path.empty() && !url.query.empty()) url.path = "/";
    const auto reparsed = net::Url::parse(url.to_string());
    ASSERT_TRUE(reparsed) << url.to_string();
    EXPECT_EQ(*reparsed, url) << url.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlFuzz, ::testing::Values(1, 2, 3, 4));

// --- CSV fuzz --------------------------------------------------------------------

class CsvFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzz, JoinParseRoundTripWithHostileContent) {
  util::Rng rng{GetParam()};
  static constexpr char kHostile[] = ",\"\n\r;=%&?";
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::string> fields(1 + rng.uniform(8));
    for (auto& field : fields) {
      const auto length = rng.uniform(24);
      for (std::size_t c = 0; c < length; ++c) {
        field.push_back(rng.bernoulli(0.2)
                            ? kHostile[rng.uniform(std::size(kHostile) - 1)]
                            : static_cast<char>('a' + rng.uniform(26)));
      }
      // csv_split works on single lines; strip raw newlines from the fuzz
      // alphabet's contribution (the writer quotes them, but the log format
      // is line-oriented).
      std::erase(field, '\n');
      std::erase(field, '\r');
    }
    std::string line;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f != 0) line.push_back(',');
      util::csv_append_escaped(line, fields[f]);
    }
    std::array<std::string_view, 8> views;
    std::string scratch;
    const util::CsvSplit split = util::csv_split(line, views, scratch);
    ASSERT_EQ(split.error, util::CsvError::kNone) << line;
    EXPECT_EQ(std::vector<std::string>(views.begin(),
                                       views.begin() + split.count),
              fields);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz, ::testing::Values(10, 11, 12));

// --- Log record round-trip fuzz ---------------------------------------------------

TEST(LogIoFuzz, RandomRecordsRoundTrip) {
  util::Rng rng{77};
  for (int i = 0; i < 1500; ++i) {
    proxy::LogRecord record;
    record.time = 1311292800 + static_cast<std::int64_t>(rng.uniform(
                                   16 * 86400));
    record.proxy_index = static_cast<std::uint8_t>(rng.uniform(7));
    record.user_hash = rng.bernoulli(0.3) ? 0 : rng();
    record.user_agent = rng.bernoulli(0.5) ? "UA " + workload::token(rng, 6)
                                           : "";
    record.method = rng.bernoulli(0.8) ? "GET" : "CONNECT";
    record.url.scheme = rng.bernoulli(0.9) ? net::Scheme::kHttp
                                           : net::Scheme::kHttps;
    record.url.host = workload::token(rng, 8) + ".net";
    record.url.port = static_cast<std::uint16_t>(rng.uniform_range(1, 65535));
    if (rng.bernoulli(0.8)) record.url.path = "/" + workload::token(rng, 9);
    if (rng.bernoulli(0.5))
      record.url.query = "x=" + workload::token(rng, 7) + "&y=1,2";
    record.categories = rng.bernoulli(0.5) ? "unavailable" : "none";
    record.filter_result = static_cast<proxy::FilterResult>(rng.uniform(3));
    record.exception =
        static_cast<proxy::ExceptionId>(rng.uniform(proxy::kExceptionCount));
    record.status = static_cast<std::uint16_t>(rng.uniform_range(100, 599));
    if (rng.bernoulli(0.2))
      record.dest_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};

    const auto parsed = proxy::from_csv(proxy::to_csv(record));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->time, record.time);
    EXPECT_EQ(parsed->url, record.url);
    EXPECT_EQ(parsed->exception, record.exception);
    EXPECT_EQ(parsed->filter_result, record.filter_result);
    EXPECT_EQ(parsed->user_hash, record.user_hash);
    EXPECT_EQ(parsed->dest_ip.has_value(), record.dest_ip.has_value());
  }
}

// --- Proxy pipeline invariants -----------------------------------------------------

class PipelineInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineInvariants, HoldOverRandomTraffic) {
  workload::ScenarioConfig config;
  config.seed = GetParam();
  config.total_requests = 40'000;
  config.user_population = 2'000;
  config.catalog_tail = 2'000;
  config.torrent_contents = 300;
  workload::SyriaScenario scenario{config};

  scenario.run([&](const proxy::LogRecord& record) {
    // OBSERVED implies no exception; DENIED implies an exception.
    if (record.filter_result == proxy::FilterResult::kObserved) {
      ASSERT_EQ(record.exception, proxy::ExceptionId::kNone);
      ASSERT_TRUE(record.status == 200 || record.status == 304);
    }
    if (record.filter_result == proxy::FilterResult::kDenied) {
      ASSERT_NE(record.exception, proxy::ExceptionId::kNone);
    }
    // Policy exceptions carry their dedicated statuses.
    if (record.exception == proxy::ExceptionId::kPolicyDenied)
      ASSERT_EQ(record.status, 403);
    if (record.exception == proxy::ExceptionId::kPolicyRedirect)
      ASSERT_EQ(record.status, 302);
    // Proxy ids stay in the SG-42..48 range; s-ip renders accordingly.
    ASSERT_LT(record.proxy_index, policy::kProxyCount);
    ASSERT_EQ(record.proxy_address().octet(3), 42 + record.proxy_index);
    // Times stay within the observation window.
    const auto c = util::to_civil(record.time);
    ASSERT_EQ(c.year, 2011);
    ASSERT_TRUE(c.month == 7 || c.month == 8);
    // The leak filter guarantees.
    if (workload::sg42_only_day(record.time))
      ASSERT_EQ(record.proxy_index, 0);
    if (!workload::user_hash_day(record.time))
      ASSERT_EQ(record.user_hash, 0u);
    // HTTPS tunnels never leak URI fields without interception.
    if (record.url.scheme == net::Scheme::kHttps)
      ASSERT_TRUE(record.url.path.empty());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariants,
                         ::testing::Values(101, 202, 303));

// --- Policy determinism -------------------------------------------------------------

TEST(PolicyDeterminism, SameSeedSameDecisions) {
  const auto relays = tor::RelayDirectory::synthesize(100, 6);
  const auto policy_a = policy::build_syria_policy(relays, 99);
  const auto policy_b = policy::build_syria_policy(relays, 99);
  util::Rng rng_a{5}, rng_b{5};
  util::Rng url_rng{8};
  for (int i = 0; i < 3000; ++i) {
    net::Url url;
    url.host = workload::token(url_rng, 10) + ".com";
    url.path = "/" + workload::token(url_rng, 6);
    policy::FilterRequest request;
    request.url = &url;
    request.time = 1312329600 + i;
    const auto a = policy_a.proxies[2].engine.evaluate(request, rng_a);
    const auto b = policy_b.proxies[2].engine.evaluate(request, rng_b);
    ASSERT_EQ(a.action, b.action);
    ASSERT_EQ(a.rule_index, b.rule_index);
  }
}

// --- Discovery soundness on random ground truth ---------------------------------------

class DiscoveryGroundTruth : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DiscoveryGroundTruth, RecoversPlantedBlacklist) {
  util::Rng rng{GetParam()};
  // Plant a random keyword and two random never-allowed domains; generate
  // traffic around them and check the loop finds exactly the plant.
  const std::string keyword = "kw" + workload::token(rng, 6);
  const std::string domain_a = "da" + workload::token(rng, 5) + ".net";
  const std::string domain_b = "db" + workload::token(rng, 5) + ".org";

  analysis::Dataset dataset;
  auto add = [&](const std::string& url_text, bool censored) {
    proxy::LogRecord record;
    record.time = 1312329600;
    record.url = *net::Url::parse(url_text);
    record.filter_result = censored ? proxy::FilterResult::kDenied
                                    : proxy::FilterResult::kObserved;
    record.exception = censored ? proxy::ExceptionId::kPolicyDenied
                                : proxy::ExceptionId::kNone;
    dataset.add(record);
  };
  for (int i = 0; i < 60; ++i) {
    add("http://site" + std::to_string(i % 7) + ".com/p/" + keyword +
            "/x" + workload::token(rng, 4),
        true);
    add("http://" + domain_a + "/", true);
    add("http://" + domain_b + "/news/" + workload::token(rng, 5) + ".html",
        true);
    add("http://" + domain_b + "/", true);
    add("http://site" + std::to_string(i % 7) + ".com/ok/" +
            workload::token(rng, 6),
        false);
    add("http://clean" + std::to_string(i % 5) + ".net/", false);
  }

  analysis::DiscoveryOptions options;
  options.min_count = 20;
  const auto result = analysis::discover_censored_strings(dataset, options);

  std::set<std::string> keywords, domains;
  for (const auto& kw : result.keywords) keywords.insert(kw.text);
  for (const auto& d : result.domains) domains.insert(d.text);
  EXPECT_TRUE(keywords.count(keyword)) << keyword;
  EXPECT_TRUE(domains.count(domain_a)) << domain_a;
  EXPECT_TRUE(domains.count(domain_b)) << domain_b;
  // Soundness: nothing ever-allowed gets flagged.
  for (const auto& d : result.domains) {
    EXPECT_EQ(d.text.find("site"), std::string::npos) << d.text;
    EXPECT_EQ(d.text.find("clean"), std::string::npos) << d.text;
  }
  // Everything censored is explained.
  EXPECT_EQ(result.censored_requests_explained,
            result.censored_requests_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryGroundTruth,
                         ::testing::Values(21, 22, 23, 24, 25));

// --- Cache churn -----------------------------------------------------------------------

TEST(CacheChurn, NeverExceedsCapacityAndStaysConsistent) {
  proxy::ResponseCache cache{64, 500};
  util::Rng rng{31};
  std::int64_t now = 0;
  for (int i = 0; i < 20'000; ++i) {
    now += static_cast<std::int64_t>(rng.uniform(30));
    const std::string key = "k" + std::to_string(rng.uniform(300));
    if (rng.bernoulli(0.4)) {
      cache.admit(key,
                  {proxy::ExceptionId::kNone,
                   static_cast<std::uint16_t>(200 + rng.uniform(5)), 0},
                  now);
    } else {
      const auto* hit = cache.find(key, now);
      if (hit != nullptr) {
        ASSERT_GE(hit->status, 200);
        ASSERT_TRUE(hit->expires_at == 0 || hit->expires_at > now);
      }
    }
    ASSERT_LE(cache.size(), 64u);
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

}  // namespace
