// The §5.4 iterative censored-string discovery algorithm, on controlled
// datasets where ground truth is known exactly.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/scan.h"
#include "analysis/string_discovery.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

constexpr std::int64_t kT0 = 1312329600;

proxy::LogRecord rec(const char* url_text,
                     proxy::ExceptionId exception = proxy::ExceptionId::kNone,
                     proxy::FilterResult result =
                         proxy::FilterResult::kObserved) {
  proxy::LogRecord record;
  record.time = kT0;
  record.url = *net::Url::parse(url_text);
  record.filter_result = exception == proxy::ExceptionId::kNone
                             ? result
                             : proxy::FilterResult::kDenied;
  if (result == proxy::FilterResult::kProxied)
    record.filter_result = proxy::FilterResult::kProxied;
  record.exception = exception;
  return record;
}

DiscoveryOptions low_threshold() {
  DiscoveryOptions options;
  options.min_support = 0.0;  // floor of 20 still applies
  return options;
}

class DiscoveryTest : public ::testing::Test {
 protected:
  void add_censored(const char* url, int count = 25) {
    for (int i = 0; i < count; ++i)
      dataset_.add(rec(url, proxy::ExceptionId::kPolicyDenied));
  }
  void add_allowed(const char* url, int count = 25) {
    for (int i = 0; i < count; ++i) dataset_.add(rec(url));
  }
  /// Rows that are neither censored nor allowed, to spread the others
  /// over several scan partitions.
  void add_errors(std::size_t count) {
    const auto error =
        rec("http://down.example/", proxy::ExceptionId::kTcpError);
    for (std::size_t i = 0; i < count; ++i) dataset_.add(error);
  }

  /// Censored traffic carrying "proxy", "ultrasurf" and its suffix
  /// "rasurf", each in the paths of two never-allowed domains, so each is
  /// a keyword unless the allowed traffic holds it (NA > 0). The allowed
  /// traffic is a filler site plus one request for `allowed_url`.
  std::set<std::string> keywords_given_allowed(const char* allowed_url) {
    add_censored("http://a-site.net/dl/proxy.exe", 30);
    add_censored("http://b-site.org/proxy/get?u=1", 30);
    add_censored("http://c-site.net/ultrasurf/get", 30);
    add_censored("http://d-site.org/ultrasurf/get", 30);
    add_censored("http://e-site.net/rasurf/x", 25);
    add_censored("http://f-site.org/rasurf/y", 25);
    add_allowed("http://ok.example/index.html", 5);
    add_allowed(allowed_url, 1);
    std::set<std::string> keywords;
    for (const auto& kw :
         discover_censored_strings(dataset_, low_threshold()).keywords)
      keywords.insert(kw.text);
    return keywords;
  }

  Dataset dataset_;
};

TEST_F(DiscoveryTest, FindsKeywordAcrossDomains) {
  add_censored("http://google.com/tbproxy/af/aquery?q=1", 40);
  add_censored("http://www.facebook.com/pp/proxy.php?x=2", 60);
  add_allowed("http://google.com/search?aquery=news", 200);
  add_allowed("http://www.facebook.com/home.php", 200);

  // 'proxy' is the most frequent clean token (60 facebook rows); its
  // substring removal also wipes the /tbproxy/ rows, so one keyword
  // explains all 100 censored requests.
  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "proxy");
  EXPECT_EQ(result.keywords[0].censored, 100u);
  EXPECT_TRUE(result.domains.empty());
  EXPECT_EQ(result.censored_requests_explained, 100u);
}

TEST_F(DiscoveryTest, RejectsTokenPresentInAllowedSet) {
  // "download" appears in censored URLs but also in allowed ones: NA > 0.
  add_censored("http://bad.example/download/tool.exe", 40);
  add_allowed("http://ok.example/download/setup.exe", 40);
  add_allowed("http://bad2.example/other", 5);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  for (const auto& kw : result.keywords) EXPECT_NE(kw.text, "download");
}

TEST_F(DiscoveryTest, FindsDomainViaAnchorRequests) {
  // Bare-domain censored requests (the paper's new-syria.com example).
  add_censored("http://new-syria.com/", 30);
  add_censored("http://new-syria.com/articles/x.html", 20);
  add_allowed("http://aljazeera.net/", 100);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "new-syria.com");
  EXPECT_EQ(result.domains[0].censored, 50u);  // removal counts all its rows
  EXPECT_TRUE(result.domains[0].is_domain);
}

TEST_F(DiscoveryTest, DomainWithAllowedTrafficRejected) {
  // facebook.com has allowed traffic; its censored anchors must not brand
  // the whole domain as suspected.
  add_censored("http://www.facebook.com/", 30);
  add_allowed("http://www.facebook.com/home.php", 100);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  for (const auto& domain : result.domains)
    EXPECT_NE(domain.text, "facebook.com");
}

TEST_F(DiscoveryTest, SingleHostTokenBecomesDomainEntry) {
  // All 'gateway' hits live on messenger.live.com, which is never allowed,
  // but live.com itself is: attribute to the host, not the keyword.
  add_censored("http://messenger.live.com/gateway/gateway.dll?Action=poll",
               60);
  add_allowed("http://mail.live.com/inbox", 100);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "messenger.live.com");
  for (const auto& kw : result.keywords) EXPECT_NE(kw.text, "gateway");
}

TEST_F(DiscoveryTest, IterativeRemovalPreventsShadowKeywords) {
  // After accepting 'proxy', the plugin path tokens must not surface as
  // additional keywords.
  add_censored("http://www.facebook.com/plugins/like.php?channel=xd_proxy",
               80);
  add_censored("http://www.facebook.com/plugins/likebox.php?channel=xd_proxy",
               40);
  add_censored("http://apps.zynga.com/poker/fb_proxy.php?u=1", 60);
  add_allowed("http://www.facebook.com/home.php", 100);
  add_allowed("http://apps.zynga.com/poker/lobby.php", 40);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "proxy");
  EXPECT_TRUE(result.domains.empty());
}

TEST_F(DiscoveryTest, CollapsesIlDomainsIntoTld) {
  add_censored("http://www.panet.co.il/", 30);
  add_censored("http://walla.co.il/", 30);
  add_censored("http://ynet.co.il/", 30);
  add_allowed("http://facebook.com/", 50);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, ".il");
  EXPECT_EQ(result.domains[0].censored, 90u);
}

TEST_F(DiscoveryTest, FewIlDomainsStayIndividual) {
  add_censored("http://www.panet.co.il/", 30);
  add_allowed("http://facebook.com/", 50);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "panet.co.il");
}

TEST_F(DiscoveryTest, IpLiteralHostsIgnored) {
  add_censored("http://84.229.1.2/", 50);
  add_allowed("http://facebook.com/", 50);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  EXPECT_TRUE(result.domains.empty());
  EXPECT_TRUE(result.keywords.empty());
  EXPECT_EQ(result.censored_requests_total, 0u);  // IPs held out of C
}

TEST_F(DiscoveryTest, ProxiedRequestsCountedSeparately) {
  add_censored("http://metacafe.com/", 40);
  for (int i = 0; i < 3; ++i)
    dataset_.add(rec("http://metacafe.com/", proxy::ExceptionId::kPolicyDenied,
                     proxy::FilterResult::kProxied));
  add_allowed("http://facebook.com/", 50);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "metacafe.com");
  EXPECT_EQ(result.domains[0].censored, 40u);
  EXPECT_EQ(result.domains[0].proxied, 3u);
}

TEST_F(DiscoveryTest, ThresholdSuppressesRareStrings) {
  add_censored("http://rare-site.net/", 5);  // below the floor of 20
  add_censored("http://common-site.net/", 50);
  add_allowed("http://facebook.com/", 100);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "common-site.net");
  EXPECT_LT(result.censored_requests_explained,
            result.censored_requests_total);
}

TEST_F(DiscoveryTest, MaxStringsCapsTheLoop) {
  for (int d = 0; d < 6; ++d) {
    add_censored(("http://domain" + std::to_string(d) + "x.net/").c_str(),
                 30);
  }
  add_allowed("http://ok.net/", 50);

  DiscoveryOptions options = low_threshold();
  options.max_strings = 3;
  const auto result = discover_censored_strings(dataset_, options);
  EXPECT_EQ(result.keywords.size() + result.domains.size(), 3u);
  EXPECT_LT(result.censored_requests_explained,
            result.censored_requests_total);
}

TEST_F(DiscoveryTest, OrderedByFrequency) {
  add_censored("http://google.com/tbproxy/x", 200);
  add_censored("http://news.net/q?s=israel", 60);
  add_censored("http://metacafe.com/", 120);
  add_allowed("http://google.com/search", 100);
  add_allowed("http://news.net/q?s=sports", 30);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 2u);
  EXPECT_EQ(result.keywords[0].text, "tbproxy");  // most frequent first...
  EXPECT_EQ(result.keywords[1].text, "israel");
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "metacafe.com");
}

TEST_F(DiscoveryTest, MinCountZeroExplainsEveryCensoredRow) {
  // Threshold 0: every candidate qualifies, down to a single row. Once no
  // candidate is left the loop must stop, not re-pick the empty string.
  add_censored("http://a-site.net/", 2);
  add_censored("http://b-site.org/proxy/x", 2);
  add_censored("http://c-site.com/proxy/y", 2);
  add_censored("http://d-site.com/", 1);
  add_allowed("http://ok.example/home", 2);

  DiscoveryOptions options;
  options.min_count = 0;
  options.min_support = 0.0;
  const auto result = discover_censored_strings(dataset_, options);
  EXPECT_EQ(result.censored_requests_total, 7u);
  EXPECT_EQ(result.censored_requests_explained, 7u);
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "proxy");
  EXPECT_EQ(result.domains.size(), 2u);
}

TEST_F(DiscoveryTest, ProxiedRowWithEmptyPathCountsTowardItsDomain) {
  // A csv '-' path loads as "", so the row's text is "host?query": the
  // host must come from the host column, not from the text before '/'.
  add_censored("http://new-syria.com/", 30);
  const auto proxied = rec("http://new-syria.com/", proxy::ExceptionId::kNone,
                           proxy::FilterResult::kProxied);
  dataset_.add(proxied);
  auto pathless = rec("http://new-syria.com/?a=1", proxy::ExceptionId::kNone,
                      proxy::FilterResult::kProxied);
  pathless.url.path.clear();
  dataset_.add(pathless);
  add_allowed("http://facebook.com/", 50);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.domains.size(), 1u);
  EXPECT_EQ(result.domains[0].text, "new-syria.com");
  EXPECT_EQ(result.domains[0].proxied, 2u);
}

// The NA = 0 test: a candidate occurring anywhere in the allowed traffic,
// as a case-insensitive substring of host + path + "?query", is allowed.

TEST_F(DiscoveryTest, NeverAllowedTokensAreKeywords) {
  EXPECT_EQ(keywords_given_allowed("http://ok.example/about.html"),
            (std::set<std::string>{"proxy", "rasurf", "ultrasurf"}));
}

TEST_F(DiscoveryTest, AllowedLongerWordRejectsKeyword) {
  const auto keywords =
      keywords_given_allowed("http://ok.example/webproxyhub/");
  EXPECT_EQ(keywords.count("proxy"), 0u);
  EXPECT_EQ(keywords.size(), 2u);
}

TEST_F(DiscoveryTest, AllowedUpperCaseRejectsKeyword) {
  const auto keywords = keywords_given_allowed("http://ok.example/PROXY/");
  EXPECT_EQ(keywords.count("proxy"), 0u);
  EXPECT_EQ(keywords.size(), 2u);
}

TEST_F(DiscoveryTest, AllowedQueryRejectsKeyword) {
  const auto keywords =
      keywords_given_allowed("http://ok.example/search?q=proxy");
  EXPECT_EQ(keywords.count("proxy"), 0u);
  EXPECT_EQ(keywords.size(), 2u);
}

TEST_F(DiscoveryTest, AllowedLongerCandidateRejectsItsSuffix) {
  // "rasurf" occurs in the allowed traffic only inside "ultrasurf", which
  // is a candidate itself: both are allowed.
  EXPECT_EQ(keywords_given_allowed("http://ok.example/ultrasurf/"),
            (std::set<std::string>{"proxy"}));
}

TEST_F(DiscoveryTest, UpperCaseAllowedHostIsAllowed) {
  // 'gateway' lives only on chat.example.net, whose domain is allowed. An
  // allowed request to the host in upper case makes the host allowed too,
  // so the token stays a keyword instead of becoming a host entry.
  add_censored("http://chat.example.net/gateway/poll", 40);
  add_allowed("http://mail.example.net/inbox", 10);
  auto upper = rec("http://chat.example.net/status");
  upper.url.host = "CHAT.EXAMPLE.NET";
  dataset_.add(upper);

  const auto result = discover_censored_strings(dataset_, low_threshold());
  ASSERT_EQ(result.keywords.size(), 1u);
  EXPECT_EQ(result.keywords[0].text, "gateway");
  EXPECT_TRUE(result.domains.empty());
}

TEST_F(DiscoveryTest, SourceWithoutAllowedRows) {
  // Censored rows in the first and the last of nine scan partitions
  // (four 16Ki-row slices per full chunk, then the 70-row tail).
  add_censored("http://new-syria.com/", 30);
  add_censored("http://a-site.net/proxy/x", 20);
  add_errors(2 * Dataset::kChunkRows);
  add_censored("http://b-site.org/proxy/y", 20);
  ASSERT_EQ(LogSource{dataset_}.partitions(), 9u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto result =
        discover_censored_strings(dataset_, low_threshold(), threads);
    EXPECT_EQ(result.censored_requests_total, 70u) << threads;
    EXPECT_EQ(result.censored_requests_explained, 70u) << threads;
    ASSERT_EQ(result.keywords.size(), 1u) << threads;
    EXPECT_EQ(result.keywords[0].text, "proxy");
    EXPECT_EQ(result.keywords[0].censored, 40u);
    ASSERT_EQ(result.domains.size(), 1u) << threads;
    EXPECT_EQ(result.domains[0].text, "new-syria.com");
  }
}

TEST_F(DiscoveryTest, SourceWithoutCensoredRows) {
  // No censored row: no candidate, so pass 2 runs with no pattern at all.
  add_allowed("http://www.facebook.com/proxy.php", 30);
  add_errors(Dataset::kChunkRows);
  add_allowed("http://google.com/search?q=proxy", 30);
  ASSERT_EQ(LogSource{dataset_}.partitions(), 5u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto result =
        discover_censored_strings(dataset_, low_threshold(), threads);
    EXPECT_EQ(result.censored_requests_total, 0u) << threads;
    EXPECT_EQ(result.censored_requests_explained, 0u) << threads;
    EXPECT_TRUE(result.keywords.empty()) << threads;
    EXPECT_TRUE(result.domains.empty()) << threads;
  }
}

}  // namespace
