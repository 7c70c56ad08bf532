// net: IPv4 parsing/rendering, CIDR subnets, URL model, registrable
// domains.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "net/domain.h"
#include "net/ipv4.h"
#include "net/subnet.h"
#include "net/url.h"
#include "proxy/log_record.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch::net;

// --- Ipv4Addr ----------------------------------------------------------------

TEST(Ipv4, RoundTrip) {
  const Ipv4Addr addr{82, 137, 200, 42};
  EXPECT_EQ(addr.to_string(), "82.137.200.42");
  const auto parsed = Ipv4Addr::parse("82.137.200.42");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, addr);
}

TEST(Ipv4, Octets) {
  const Ipv4Addr addr{1, 2, 3, 4};
  EXPECT_EQ(addr.octet(0), 1);
  EXPECT_EQ(addr.octet(3), 4);
  EXPECT_EQ(addr.value(), 0x01020304u);
}

struct ParseCase {
  const char* text;
  bool valid;
};

class Ipv4ParseSweep : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4ParseSweep, Validates) {
  EXPECT_EQ(Ipv4Addr::parse(GetParam().text).has_value(), GetParam().valid)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4ParseSweep,
    ::testing::Values(ParseCase{"0.0.0.0", true},
                      ParseCase{"255.255.255.255", true},
                      ParseCase{"256.1.1.1", false},
                      ParseCase{"1.2.3", false},
                      ParseCase{"1.2.3.4.5", false},
                      ParseCase{"1.2.3.4 ", false},
                      ParseCase{"a.b.c.d", false},
                      ParseCase{"", false},
                      ParseCase{"1..2.3", false},
                      ParseCase{"01.2.3.4", true},
                      ParseCase{"1.2.3.0404", false},
                      ParseCase{"12.34.56.78", true}));

TEST(Ipv4, LooksLikeIpv4MatchesParse) {
  EXPECT_TRUE(looks_like_ipv4("212.150.1.10"));
  EXPECT_FALSE(looks_like_ipv4("facebook.com"));
}

// --- Ipv4Subnet ----------------------------------------------------------------

TEST(Subnet, NormalizesHostBits) {
  const Ipv4Subnet subnet{Ipv4Addr{84, 229, 12, 7}, 16};
  EXPECT_EQ(subnet.to_string(), "84.229.0.0/16");
}

TEST(Subnet, RejectsBadPrefix) {
  EXPECT_THROW(Ipv4Subnet(Ipv4Addr{1, 2, 3, 4}, 33), std::invalid_argument);
  EXPECT_THROW(Ipv4Subnet(Ipv4Addr{1, 2, 3, 4}, -1), std::invalid_argument);
}

TEST(Subnet, ContainsBoundaries) {
  const auto subnet = Ipv4Subnet::parse("46.120.0.0/15");
  ASSERT_TRUE(subnet);
  EXPECT_TRUE(subnet->contains(*Ipv4Addr::parse("46.120.0.0")));
  EXPECT_TRUE(subnet->contains(*Ipv4Addr::parse("46.121.255.255")));
  EXPECT_FALSE(subnet->contains(*Ipv4Addr::parse("46.122.0.0")));
  EXPECT_FALSE(subnet->contains(*Ipv4Addr::parse("46.119.255.255")));
}

TEST(Subnet, SizeAndMask) {
  const auto subnet = Ipv4Subnet::parse("212.235.64.0/19");
  ASSERT_TRUE(subnet);
  EXPECT_EQ(subnet->size(), 8192u);
  EXPECT_EQ(subnet->mask(), 0xFFFFE000u);
  const auto slash32 = Ipv4Subnet::parse("1.2.3.4/32");
  EXPECT_EQ(slash32->size(), 1u);
}

TEST(Subnet, SampleStaysInside) {
  const auto subnet = Ipv4Subnet::parse("89.138.0.0/15");
  syrwatch::util::Rng rng{17};
  for (int i = 0; i < 10000; ++i)
    ASSERT_TRUE(subnet->contains(subnet->sample(rng)));
}

TEST(Subnet, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4Subnet::parse("1.2.3.4"));
  EXPECT_FALSE(Ipv4Subnet::parse("1.2.3.4/"));
  EXPECT_FALSE(Ipv4Subnet::parse("1.2.3.4/33"));
  EXPECT_FALSE(Ipv4Subnet::parse("1.2.3.4/ab"));
  EXPECT_FALSE(Ipv4Subnet::parse("1.2.3/16"));
}

// --- Url ----------------------------------------------------------------------

TEST(Url, ParseFull) {
  const auto url =
      Url::parse("http://www.facebook.com:8080/Syrian.Revolution?ref=ts");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, Scheme::kHttp);
  EXPECT_EQ(url->host, "www.facebook.com");
  EXPECT_EQ(url->port, 8080);
  EXPECT_EQ(url->path, "/Syrian.Revolution");
  EXPECT_EQ(url->query, "ref=ts");
}

TEST(Url, DefaultsAndRender) {
  const auto url = Url::parse("facebook.com/home.php");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, Scheme::kHttp);
  EXPECT_EQ(url->port, 80);
  EXPECT_EQ(url->to_string(), "http://facebook.com/home.php");
}

TEST(Url, HttpsDefaultPortElided) {
  const auto url = Url::parse("https://mail.google.com/");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->port, 443);
  EXPECT_EQ(url->to_string(), "https://mail.google.com/");
}

TEST(Url, RoundTripThroughString) {
  for (const char* text :
       {"http://a.com/", "https://b.org:8443/x?y=z",
        "http://1.2.3.4:9001", "http://host.net/p/q.php?a=1&b=2"}) {
    const auto url = Url::parse(text);
    ASSERT_TRUE(url) << text;
    const auto again = Url::parse(url->to_string());
    ASSERT_TRUE(again) << url->to_string();
    EXPECT_EQ(*url, *again);
  }
}

TEST(Url, AppendToExtendsABuffer) {
  std::string buffer = "key:";
  const auto url = Url::parse("tcp://5.6.7.8:65535");
  ASSERT_TRUE(url);
  url->append_to(buffer);
  EXPECT_EQ(buffer, "key:tcp://5.6.7.8:65535");
  const auto query = Url::parse("https://b.org:8443/x?y=z");
  ASSERT_TRUE(query);
  buffer.clear();
  query->append_to(buffer);
  EXPECT_EQ(buffer, query->to_string());
  EXPECT_EQ(buffer, "https://b.org:8443/x?y=z");
}

TEST(Url, Extension) {
  Url url;
  url.path = "/download/SkypeSetup.exe";
  EXPECT_EQ(url.extension(), "exe");
  url.path = "/plugins/like.php";
  EXPECT_EQ(url.extension(), "php");
  url.path = "/no/extension";
  EXPECT_EQ(url.extension(), "");
  url.path = "/trailing.dir/file";
  EXPECT_EQ(url.extension(), "");
  url.path = "";
  EXPECT_EQ(url.extension(), "");
}

TEST(Url, FilterTextConcatenation) {
  Url url;
  url.host = "google.com";
  url.path = "/tbproxy/af/query";
  url.query = "q=abc";
  EXPECT_EQ(url.filter_text(), "google.com/tbproxy/af/query?q=abc");
  url.query.clear();
  EXPECT_EQ(url.filter_text(), "google.com/tbproxy/af/query");
}

TEST(Url, QueryWithoutPathGetsRootPath) {
  // "host?a=b": HTTP has no pathless request-target, so the path
  // normalizes to "/" — path-anchored rules and filter_text() need the
  // separator.
  const auto url = Url::parse("http://example.com?a=b");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->path, "/");
  EXPECT_EQ(url->query, "a=b");
  EXPECT_EQ(url->filter_text(), "example.com/?a=b");

  const auto with_port = Url::parse("example.com:81?a=b");
  ASSERT_TRUE(with_port);
  EXPECT_EQ(with_port->port, 81);
  EXPECT_EQ(with_port->path, "/");
  EXPECT_EQ(with_port->query, "a=b");

  // A bare host keeps its empty path (the CONNECT/tcp shape the log
  // renders as '-').
  const auto bare = Url::parse("https://example.com");
  ASSERT_TRUE(bare);
  EXPECT_EQ(bare->path, "");
  EXPECT_EQ(bare->query, "");
}

TEST(Url, ParseRejectsBadInput) {
  EXPECT_FALSE(Url::parse(""));
  EXPECT_FALSE(Url::parse("http:///path"));
  EXPECT_FALSE(Url::parse("http://host:99999/"));
  EXPECT_FALSE(Url::parse("ftp://host/"));
  EXPECT_FALSE(Url::parse("http://host:ab/"));
}

TEST(Url, HostLowercased) {
  const auto url = Url::parse("http://WWW.Facebook.COM/Page");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->host, "www.facebook.com");
  EXPECT_EQ(url->path, "/Page");  // paths keep their case (Table 14 pages)
}

// --- registrable_domain ---------------------------------------------------------

struct RegCase {
  const char* host;
  const char* expected;
};

class RegDomainSweep : public ::testing::TestWithParam<RegCase> {};

TEST_P(RegDomainSweep, Extracts) {
  EXPECT_EQ(registrable_domain(GetParam().host), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RegDomainSweep,
    ::testing::Values(RegCase{"www.facebook.com", "facebook.com"},
                      RegCase{"ar-ar.facebook.com", "facebook.com"},
                      RegCase{"facebook.com", "facebook.com"},
                      RegCase{"upload.youtube.com", "youtube.com"},
                      RegCase{"alquds.co.uk", "alquds.co.uk"},
                      RegCase{"news.bbc.co.uk", "bbc.co.uk"},
                      RegCase{"mtn.com.sy", "mtn.com.sy"},
                      RegCase{"www.panet.co.il", "panet.co.il"},
                      RegCase{"localhost", "localhost"},
                      RegCase{"WWW.GOOGLE.COM", "google.com"},
                      RegCase{"212.150.1.10", "212.150.1.10"},
                      RegCase{"static.ak.fbcdn.net", "fbcdn.net"}));

/// The splitting implementation registrable_domain replaced (a lower-cased
/// copy split into a vector of labels, then joined), kept as the oracle.
std::string registrable_domain_oracle(std::string_view host) {
  if (looks_like_ipv4(host)) return std::string(host);
  const std::string lowered = syrwatch::util::to_lower(host);
  const auto labels = syrwatch::util::split(lowered, '.');
  if (labels.size() <= 2) return lowered;
  const std::string_view tld = labels[labels.size() - 1];
  const std::string_view second = labels[labels.size() - 2];
  const std::array<std::string_view, 6> suffixes = {"co",  "com", "net",
                                                    "org", "gov", "ac"};
  bool two_level_suffix = false;
  for (const auto suffix : suffixes)
    two_level_suffix |= tld.size() == 2 && second == suffix;
  const std::size_t keep = two_level_suffix ? 3 : 2;
  if (labels.size() <= keep) return lowered;
  std::string out;
  for (std::size_t i = labels.size() - keep; i < labels.size(); ++i) {
    if (!out.empty()) out.push_back('.');
    out += labels[i];
  }
  return out;
}

void expect_matches_oracle(const std::string& host) {
  const std::string want = registrable_domain_oracle(host);
  EXPECT_EQ(registrable_domain(host), want) << '"' << host << '"';
  std::string scratch = "stale";
  EXPECT_EQ(registrable_domain_view(host, looks_like_ipv4(host), scratch),
            want)
      << '"' << host << '"';
}

TEST(RegistrableDomain, MatchesTheSplittingOracleOnEdgeCases) {
  for (const char* host :
       {"", ".", "..", "...", "a..", "..a", "x..com", "a.b.", "a.b..",
        ".com", "com.", "WWW.Example.COM", "News.BBC.Co.UK", "a.CO.uk",
        "co.uk", "x.co.uk", "..co.uk", "a..co.uk", "x.y.co.ukk",
        "x.y.com.sy", "x.COM.SY", "a.b.gov.il", "a.ac.k", "a.b.ac.",
        "10.0.0.1", "10.0.0.1.5", "1.2.3.4.example.com", "256.1.1.1",
        "1.2.3", "localhost", "LOCALHOST", "a.b.c.d.e.f.org",
        "static.ak.fbcdn.net", "x.Co.Il", "x.cO.iL."})
    expect_matches_oracle(host);
}

TEST(RegistrableDomain, MatchesTheSplittingOracleOnAGeneratedCorpus) {
  syrwatch::workload::ScenarioConfig config;
  config.total_requests = 20'000;
  config.threads = 2;
  syrwatch::workload::SyriaScenario scenario{config};
  std::set<std::string> hosts;
  scenario.run([&](const syrwatch::proxy::LogRecord& record) {
    hosts.insert(record.url.host);
  });
  ASSERT_GT(hosts.size(), 1000u);
  std::string upper;
  for (const std::string& host : hosts) {
    expect_matches_oracle(host);
    upper = host;
    for (char& c : upper)
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    expect_matches_oracle(upper);
  }
}

}  // namespace
