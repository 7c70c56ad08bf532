// Policy layer: rule matchers, first-match engine semantics, custom
// category list narrowness (§6), schedules, and the inferred Syria
// ruleset.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "policy/custom_category.h"
#include "policy/engine.h"
#include "policy/schedule.h"
#include "policy/syria.h"
#include "tor/relay_directory.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::policy;

net::Url url_of(const char* text) { return *net::Url::parse(text); }

FilterRequest request_for(const net::Url& url,
                          std::optional<net::Ipv4Addr> dest = std::nullopt,
                          std::string_view category = {}) {
  FilterRequest request;
  request.url = &url;
  request.dest_ip = dest;
  request.custom_category = category;
  return request;
}

// --- Individual rules --------------------------------------------------------

TEST(KeywordRule, MatchesAnyUrlPart) {
  PolicyEngine engine;
  engine.add({KeywordRule{"proxy"}, PolicyAction::kDeny, "kw"});
  util::Rng rng{1};

  const auto host_hit = url_of("http://kproxy.com/");
  EXPECT_TRUE(engine.evaluate(request_for(host_hit), rng).censored());
  const auto path_hit = url_of("http://google.com/tbproxy/af/query");
  EXPECT_TRUE(engine.evaluate(request_for(path_hit), rng).censored());
  const auto query_hit = url_of("http://fb.com/like?channel=xd_proxy.php");
  EXPECT_TRUE(engine.evaluate(request_for(query_hit), rng).censored());
  const auto miss = url_of("http://google.com/search?q=news");
  EXPECT_FALSE(engine.evaluate(request_for(miss), rng).censored());
}

TEST(KeywordRule, CaseInsensitive) {
  PolicyEngine engine;
  engine.add({KeywordRule{"israel"}, PolicyAction::kDeny, "kw"});
  util::Rng rng{1};
  const auto upper = url_of("http://news.net/search?q=ISRAEL+today");
  EXPECT_TRUE(engine.evaluate(request_for(upper), rng).censored());
}

TEST(DomainRule, SuffixSemantics) {
  PolicyEngine engine;
  engine.add({DomainRule{"skype.com"}, PolicyAction::kDeny, "d"});
  engine.add({DomainRule{".il"}, PolicyAction::kDeny, "tld"});
  util::Rng rng{1};

  for (const char* host :
       {"http://skype.com/", "http://download.skype.com/x",
        "http://www.panet.co.il/"}) {
    const auto url = url_of(host);
    EXPECT_TRUE(engine.evaluate(request_for(url), rng).censored()) << host;
  }
  const auto miss = url_of("http://notskype.com/");
  EXPECT_FALSE(engine.evaluate(request_for(miss), rng).censored());
}

TEST(SubnetAndIpRules, RequireDestIp) {
  PolicyEngine engine;
  engine.add({SubnetRule{*net::Ipv4Subnet::parse("84.229.0.0/16")},
              PolicyAction::kDeny, "subnet"});
  engine.add({IpRule{*net::Ipv4Addr::parse("212.150.1.10")},
              PolicyAction::kDeny, "ip"});
  util::Rng rng{1};

  const auto in_subnet = url_of("http://84.229.3.4/");
  EXPECT_TRUE(engine
                  .evaluate(request_for(in_subnet,
                                        net::Ipv4Addr::parse("84.229.3.4")),
                            rng)
                  .censored());
  // Same URL with no resolved destination: subnet rules can't fire.
  EXPECT_FALSE(engine.evaluate(request_for(in_subnet), rng).censored());

  const auto exact = url_of("http://212.150.1.10/");
  EXPECT_TRUE(engine
                  .evaluate(request_for(exact,
                                        net::Ipv4Addr::parse("212.150.1.10")),
                            rng)
                  .censored());
  const auto neighbour = url_of("http://212.150.1.11/");
  EXPECT_FALSE(engine
                   .evaluate(request_for(neighbour,
                                         net::Ipv4Addr::parse("212.150.1.11")),
                             rng)
                   .censored());
}

TEST(CategoryRule, MatchesAssignedCategory) {
  PolicyEngine engine;
  engine.add({CategoryRule{"Blocked sites"}, PolicyAction::kRedirect, "cat"});
  util::Rng rng{1};
  const auto url = url_of("http://www.facebook.com/Syrian.Revolution?ref=ts");
  const auto hit = engine.evaluate(request_for(url, {}, "Blocked sites"), rng);
  EXPECT_EQ(hit.action, PolicyAction::kRedirect);
  const auto miss = engine.evaluate(request_for(url, {}, ""), rng);
  EXPECT_EQ(miss.action, PolicyAction::kAllow);
}

TEST(PortRule, MatchesPort) {
  PolicyEngine engine;
  engine.add({PortRule{9001}, PolicyAction::kDeny, "p"});
  util::Rng rng{1};
  const auto tor = url_of("tcp://5.6.7.8:9001");
  EXPECT_TRUE(engine.evaluate(request_for(tor), rng).censored());
  const auto web = url_of("http://5.6.7.8/");
  EXPECT_FALSE(engine.evaluate(request_for(web), rng).censored());
}

TEST(EndpointSetRule, GatedBySchedule) {
  auto endpoints = std::make_shared<std::unordered_set<std::uint64_t>>();
  const auto relay_ip = *net::Ipv4Addr::parse("5.6.7.8");
  endpoints->insert(EndpointSetRule::key(relay_ip, 9001));

  PolicyEngine always;
  always.add({EndpointSetRule{endpoints, OnOffSchedule::constant(1.0)},
              PolicyAction::kDeny, "tor"});
  PolicyEngine never;
  never.add({EndpointSetRule{endpoints, OnOffSchedule::constant(0.0)},
             PolicyAction::kDeny, "tor"});
  util::Rng rng{1};

  const auto hit = url_of("tcp://5.6.7.8:9001");
  EXPECT_TRUE(always.evaluate(request_for(hit, relay_ip), rng).censored());
  EXPECT_FALSE(never.evaluate(request_for(hit, relay_ip), rng).censored());
  // Wrong port: not in the endpoint set at all.
  const auto other_port = url_of("tcp://5.6.7.8:9030");
  EXPECT_FALSE(
      always.evaluate(request_for(other_port, relay_ip), rng).censored());
}

// --- Engine semantics ----------------------------------------------------------

TEST(PolicyEngine, FirstMatchWins) {
  PolicyEngine engine;
  const auto redirect_idx = engine.add(
      {CategoryRule{"Blocked sites"}, PolicyAction::kRedirect, "cat"});
  const auto keyword_idx =
      engine.add({KeywordRule{"proxy"}, PolicyAction::kDeny, "kw"});
  util::Rng rng{1};

  // URL that matches both: the category rule sits first and decides.
  const auto url = url_of("http://www.facebook.com/page_proxy.php?ref=ts");
  const auto decision =
      engine.evaluate(request_for(url, {}, "Blocked sites"), rng);
  EXPECT_EQ(decision.action, PolicyAction::kRedirect);
  EXPECT_EQ(decision.rule_index, redirect_idx);

  // Without the category, the keyword fires.
  const auto fallback = engine.evaluate(request_for(url), rng);
  EXPECT_EQ(fallback.action, PolicyAction::kDeny);
  EXPECT_EQ(fallback.rule_index, keyword_idx);
}

TEST(PolicyEngine, RuleMatchesInspectsSingleRules) {
  PolicyEngine engine;
  const auto kw = engine.add({KeywordRule{"proxy"}, PolicyAction::kDeny, "k"});
  const auto dom =
      engine.add({DomainRule{"skype.com"}, PolicyAction::kDeny, "d"});
  util::Rng rng{1};
  const auto url = url_of("http://skype.com/download/proxy-helper");
  const auto request = request_for(url);
  EXPECT_TRUE(engine.rule_matches(kw, request, rng));
  EXPECT_TRUE(engine.rule_matches(dom, request, rng));
  const auto clean = url_of("http://example.com/");
  const auto clean_request = request_for(clean);
  EXPECT_FALSE(engine.rule_matches(kw, clean_request, rng));
  EXPECT_FALSE(engine.rule_matches(dom, clean_request, rng));
  EXPECT_THROW(engine.rule_matches(99, clean_request, rng),
               std::out_of_range);
}

TEST(PolicyEngine, DefaultAllow) {
  PolicyEngine engine;
  util::Rng rng{1};
  const auto url = url_of("http://example.com/");
  const auto decision = engine.evaluate(request_for(url), rng);
  EXPECT_EQ(decision.action, PolicyAction::kAllow);
  EXPECT_EQ(decision.rule_index, PolicyDecision::kNoRule);
}

// --- CustomCategoryList --------------------------------------------------------

TEST(CustomCategory, WholeHostEntries) {
  CustomCategoryList list;
  list.add_host("upload.youtube.com", "Blocked sites");
  EXPECT_EQ(list.classify(url_of("http://upload.youtube.com/any?x=1")),
            "Blocked sites");
  EXPECT_EQ(list.classify(url_of("http://www.youtube.com/any")), "");
}

TEST(CustomCategory, NarrowQueryMatching) {
  // §6: Syrian.Revolution?ref=ts is categorized, the ajaxpipe variant of
  // the *same page* is not.
  CustomCategoryList list;
  list.add_page("www.facebook.com", "/Syrian.Revolution", {"ref=ts"},
                "Blocked sites");
  EXPECT_EQ(
      list.classify(url_of("http://www.facebook.com/Syrian.Revolution?ref=ts")),
      "Blocked sites");
  EXPECT_EQ(list.classify(url_of(
                "http://www.facebook.com/Syrian.Revolution?ref=ts&__a=11&"
                "ajaxpipe=1")),
            "");
  EXPECT_EQ(list.classify(url_of("http://www.facebook.com/Syrian.Revolution")),
            "");
  // Case matters in paths: Syrian.revolution is a different page.
  EXPECT_EQ(
      list.classify(url_of("http://www.facebook.com/Syrian.revolution?ref=ts")),
      "");
}

TEST(CustomCategory, EmptyQueryListMeansBarePage) {
  CustomCategoryList list;
  list.add_page("www.facebook.com", "/DaysOfRage", {}, "Blocked sites");
  EXPECT_EQ(list.classify(url_of("http://www.facebook.com/DaysOfRage")),
            "Blocked sites");
  EXPECT_EQ(list.classify(url_of("http://www.facebook.com/DaysOfRage?x=1")),
            "");
}

// --- OnOffSchedule -------------------------------------------------------------

TEST(Schedule, ConstantIsFlat) {
  const auto schedule = OnOffSchedule::constant(0.4);
  EXPECT_EQ(schedule.intensity(0), 0.4);
  EXPECT_EQ(schedule.intensity(1'000'000), 0.4);
}

TEST(Schedule, DeterministicPerWindow) {
  const OnOffSchedule schedule{123, 3600, 0.5, 0.2, 0.9};
  EXPECT_EQ(schedule.intensity(100), schedule.intensity(3599));
  // Same params, same seed => same function.
  const OnOffSchedule again{123, 3600, 0.5, 0.2, 0.9};
  for (std::int64_t t = 0; t < 48 * 3600; t += 3600)
    EXPECT_EQ(schedule.intensity(t), again.intensity(t));
}

TEST(Schedule, OnFractionApproximatelyRespected) {
  const OnOffSchedule schedule{77, 3600, 0.3, 0.5, 1.0};
  int on = 0;
  constexpr int kWindows = 5000;
  for (int w = 0; w < kWindows; ++w) {
    const double i = schedule.intensity(static_cast<std::int64_t>(w) * 3600);
    if (i > 0.0) {
      ++on;
      EXPECT_GE(i, 0.5);
      EXPECT_LE(i, 1.0);
    }
  }
  EXPECT_NEAR(on / double(kWindows), 0.3, 0.03);
}

TEST(Schedule, RejectsBadArguments) {
  EXPECT_THROW(OnOffSchedule(1, 0, 0.5, 0.1, 0.9), std::invalid_argument);
  EXPECT_THROW(OnOffSchedule(1, 60, 1.5, 0.1, 0.9), std::invalid_argument);
  EXPECT_THROW(OnOffSchedule(1, 60, 0.5, 0.9, 0.1), std::invalid_argument);
}

// --- The inferred Syria deployment ----------------------------------------------

class SyriaPolicyTest : public ::testing::Test {
 protected:
  SyriaPolicyTest()
      : relays_(tor::RelayDirectory::synthesize(200, 1)),
        policy_(build_syria_policy(relays_, 2011)) {}

  tor::RelayDirectory relays_;
  SyriaPolicy policy_;
  util::Rng rng_{3};
};

TEST_F(SyriaPolicyTest, FiveKeywords) {
  const auto& keywords = censored_keywords();
  ASSERT_EQ(keywords.size(), 5u);
  EXPECT_EQ(keywords[0], "proxy");
  EXPECT_EQ(keywords[3], "israel");
}

TEST_F(SyriaPolicyTest, SuspectedListHas105Domains) {
  EXPECT_EQ(suspected_domains().size(), 105u);
}

TEST_F(SyriaPolicyTest, EveryProxyDeniesSuspectedDomains) {
  for (std::size_t p = 0; p < kProxyCount; ++p) {
    for (const char* text :
         {"http://www.metacafe.com/watch/x/y/", "http://skype.com/",
          "http://wikimedia.org/wiki/Syria", "http://www.panet.co.il/"}) {
      const auto url = url_of(text);
      const auto decision =
          policy_.proxies[p].engine.evaluate(request_for(url), rng_);
      EXPECT_EQ(decision.action, PolicyAction::kDeny)
          << proxy_name(p) << " " << text;
    }
  }
}

TEST_F(SyriaPolicyTest, CategoryNamingFollowsLeak) {
  // SG-43 and SG-48 use the "none"-style labels (§4, §5.2).
  EXPECT_EQ(policy_.proxies[1].default_category_label, "none");
  EXPECT_EQ(policy_.proxies[6].default_category_label, "none");
  EXPECT_EQ(policy_.proxies[0].default_category_label, "unavailable");
  EXPECT_EQ(policy_.proxies[6].blocked_category_label, "Blocked sites");
  EXPECT_EQ(policy_.proxies[0].blocked_category_label,
            "Blocked sites; unavailable");
}

TEST_F(SyriaPolicyTest, OnlySg44CensorsTorAggressively) {
  const auto& relay = relays_.relays().front();
  net::Url onion;
  onion.scheme = net::Scheme::kTcp;
  onion.host = relay.address.to_string();
  onion.port = relay.or_port;

  // Count censored onion connects per proxy over many evaluations and
  // schedule windows.
  std::array<int, kProxyCount> censored{};
  for (int window = 0; window < 200; ++window) {
    FilterRequest request = request_for(onion, relay.address);
    request.time = static_cast<std::int64_t>(window) * 7200 + 100;
    for (std::size_t p = 0; p < kProxyCount; ++p) {
      if (policy_.proxies[p].engine.evaluate(request, rng_).censored())
        ++censored[p];
    }
  }
  EXPECT_GT(censored[kTorCensorProxy], 20);
  for (std::size_t p = 0; p < kProxyCount; ++p) {
    if (p == kTorCensorProxy) continue;
    EXPECT_LE(censored[p], 3) << proxy_name(p);
  }
}

TEST_F(SyriaPolicyTest, TorhttpNeverCensored) {
  // Directory fetches hit the dir port, which is not in the endpoint set.
  for (const auto& relay : relays_.relays()) {
    if (relay.dir_port == 0) continue;
    net::Url dir_url;
    dir_url.host = relay.address.to_string();
    dir_url.port = relay.dir_port;
    dir_url.path = "/tor/server/authority.z";
    FilterRequest request = request_for(dir_url, relay.address);
    request.time = 1000;
    EXPECT_FALSE(policy_.proxies[kTorCensorProxy]
                     .engine.evaluate(request, rng_)
                     .censored());
  }
}

TEST_F(SyriaPolicyTest, FacebookPageRedirectedOnlyInCategorizedForm) {
  const auto& custom = policy_.custom_categories;
  const auto categorized =
      url_of("http://www.facebook.com/Syrian.Revolution?ref=ts");
  const auto variant = url_of(
      "http://www.facebook.com/Syrian.Revolution?ref=ts&__a=11&ajaxpipe=1");
  EXPECT_EQ(custom.classify(categorized), kBlockedSitesLabel);
  EXPECT_EQ(custom.classify(variant), "");

  const auto& engine = policy_.proxies[0].engine;
  const auto redirected = engine.evaluate(
      request_for(categorized, {}, custom.classify(categorized)), rng_);
  EXPECT_EQ(redirected.action, PolicyAction::kRedirect);
  const auto allowed =
      engine.evaluate(request_for(variant, {}, custom.classify(variant)),
                      rng_);
  EXPECT_EQ(allowed.action, PolicyAction::kAllow);
}

TEST_F(SyriaPolicyTest, IsraeliSubnetGroupsDiffer) {
  const auto& engine = policy_.proxies[2].engine;
  // Wholesale-blocked subnet.
  const auto blocked = url_of("http://84.229.55.66/");
  EXPECT_TRUE(engine
                  .evaluate(request_for(blocked,
                                        net::Ipv4Addr::parse("84.229.55.66")),
                            rng_)
                  .censored());
  // 212.150/16: only three hosts blocked.
  const auto host_blocked = url_of("http://212.150.7.33/");
  EXPECT_TRUE(
      engine
          .evaluate(request_for(host_blocked,
                                net::Ipv4Addr::parse("212.150.7.33")),
                    rng_)
          .censored());
  const auto host_ok = url_of("http://212.150.200.1/");
  EXPECT_FALSE(
      engine
          .evaluate(request_for(host_ok,
                                net::Ipv4Addr::parse("212.150.200.1")),
                    rng_)
          .censored());
  // 212.235.64/19: lower /20 blocked, upper half allowed.
  const auto lower = url_of("http://212.235.70.1/");
  EXPECT_TRUE(engine
                  .evaluate(request_for(lower,
                                        net::Ipv4Addr::parse("212.235.70.1")),
                            rng_)
                  .censored());
  const auto upper = url_of("http://212.235.85.1/");
  EXPECT_FALSE(engine
                   .evaluate(request_for(upper,
                                         net::Ipv4Addr::parse("212.235.85.1")),
                             rng_)
                   .censored());
}

TEST_F(SyriaPolicyTest, Table14PagesAreAllRegistered) {
  for (const auto& page : facebook_blocked_pages()) {
    const auto url =
        url_of(("http://www.facebook.com/" + page.page + "?ref=ts").c_str());
    EXPECT_EQ(policy_.custom_categories.classify(url), kBlockedSitesLabel)
        << page.page;
  }
}

TEST(ProxyName, Formatting) {
  EXPECT_EQ(proxy_name(0), "SG-42");
  EXPECT_EQ(proxy_name(6), "SG-48");
  EXPECT_THROW(proxy_name(7), std::out_of_range);
}

// --- Compiled evaluation against the linear walk ---------------------------

/// The reference: the first rule, in index order, that matches in
/// isolation — the semantics evaluate() compiles.
PolicyDecision linear_evaluate(const PolicyEngine& engine,
                               const FilterRequest& request, util::Rng& rng) {
  for (std::uint32_t i = 0; i < engine.rules().size(); ++i) {
    if (engine.rule_matches(i, request, rng))
      return {engine.rule(i).action, i};
  }
  return {};
}

/// Compiled and linear evaluation from equal RNG states: same decision,
/// and the same RNG state afterwards (so every later draw agrees too).
class CompiledVsLinear {
 public:
  explicit CompiledVsLinear(std::uint64_t seed)
      : compiled_rng_(seed), linear_rng_(seed) {}

  void check(const PolicyEngine& engine, const FilterRequest& request,
             const std::string& context) {
    const PolicyDecision compiled = engine.evaluate(request, compiled_rng_);
    const PolicyDecision linear = linear_evaluate(engine, request, linear_rng_);
    ++requests_;
    if (compiled.rule_index != PolicyDecision::kNoRule)
      ++decided_by_[engine.rule(compiled.rule_index).matcher.index()];
    const bool same = compiled.rule_index == linear.rule_index &&
                      compiled.action == linear.action &&
                      compiled_rng_.save_state() == linear_rng_.save_state();
    if (!same && failures_++ < 5) {
      ADD_FAILURE() << context << " url " << request.url->to_string()
                    << ": compiled rule " << compiled.rule_index
                    << ", linear rule " << linear.rule_index;
    }
  }

  std::uint64_t requests() const { return requests_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t decided_by(std::size_t kind) const { return decided_by_[kind]; }

 private:
  util::Rng compiled_rng_;
  util::Rng linear_rng_;
  std::uint64_t requests_ = 0;
  std::uint64_t failures_ = 0;
  std::array<std::uint64_t, kRuleKindCount> decided_by_{};
};

TEST(CompiledPolicy, MatchesLinearWalkOnGeneratedTraffic) {
  // Every record of a 200k-request run, through each proxy's engine as
  // built and after the December 2012 update (scheduled Tor rules, then
  // an always-on endpoint rule and a port rule).
  workload::ScenarioConfig config;
  config.total_requests = 200'000;
  config.seed = 2011;
  config.threads = 2;
  workload::SyriaScenario scenario{config};
  const SyriaPolicy& summer = scenario.policy();
  SyriaPolicy december = summer;
  apply_december_2012_update(december, scenario.relays());

  CompiledVsLinear checker{7};
  scenario.run([&](const proxy::LogRecord& record) {
    const FilterRequest request{&record.url, record.dest_ip, record.time,
                                summer.custom_categories.classify(record.url)};
    for (std::size_t p = 0; p < kProxyCount; ++p) {
      checker.check(summer.proxies[p].engine, request, proxy_name(p));
      checker.check(december.proxies[p].engine, request,
                    proxy_name(p) + " after December 2012");
    }
  });
  EXPECT_GT(checker.requests(), 14u * 100'000u);
  EXPECT_EQ(checker.failures(), 0u);
  // The corpus reaches every table but the port rule's, which only
  // catches a 9001 endpoint no relay rule covers.
  for (const std::string_view kind :
       {"keyword", "domain", "subnet", "ip", "category", "endpoint_set"}) {
    const auto at = std::find(kRuleKindNames.begin(), kRuleKindNames.end(),
                              kind) - kRuleKindNames.begin();
    EXPECT_GT(checker.decided_by(static_cast<std::size_t>(at)), 0u) << kind;
  }
}

/// Seeded rule lists and requests built from one pool of fragments, so
/// rules and URLs collide often: empty keywords (match everything) and
/// domains (match nothing), ".", "..", leading dots, upper case,
/// duplicates, UTF-8, keywords spanning '/' and '?', IP-literal and
/// trailing-dot hosts, an empty path with a query.
class RandomPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

  Rule rule(const std::vector<Rule>& earlier) {
    if (!earlier.empty() && rng_.bernoulli(0.1))
      return earlier[rng_.uniform(earlier.size())];  // a duplicate
    const auto action =
        rng_.bernoulli(0.2) ? PolicyAction::kRedirect : PolicyAction::kDeny;
    switch (rng_.uniform(7)) {
      case 0: return {KeywordRule{pick(kKeywords)}, action, "keyword"};
      case 1: return {DomainRule{pick(kDomains)}, action, "domain"};
      case 2:
        return {SubnetRule{net::Ipv4Subnet{address(),
                                           static_cast<int>(pick(kPrefixes))}},
                action, "subnet"};
      case 3: return {IpRule{address()}, action, "ip"};
      case 4: return {CategoryRule{pick(kCategories)}, action, "category"};
      case 5: return {PortRule{pick(kPorts)}, action, "port"};
      default: {
        auto endpoints = std::make_shared<std::unordered_set<std::uint64_t>>();
        for (std::uint64_t n = 1 + rng_.uniform(3); n-- > 0;)
          endpoints->insert(EndpointSetRule::key(address(), pick(kPorts)));
        const double p = pick(kIntensities);
        const OnOffSchedule schedule =
            p < 0.0 ? OnOffSchedule{rng_(), 3600, 0.5, 0.2, 0.9}
                    : OnOffSchedule::constant(p);
        return {EndpointSetRule{std::move(endpoints), schedule}, action,
                "endpoint"};
      }
    }
  }

  /// A URL; `dest` receives the destination address a request carries.
  net::Url url(std::optional<net::Ipv4Addr>& dest) {
    net::Url url;
    url.scheme = static_cast<net::Scheme>(rng_.uniform(3));
    url.port = pick(kPorts);
    dest.reset();
    if (rng_.bernoulli(0.25)) {
      const net::Ipv4Addr ip = address();
      url.host = ip.to_string();
      if (rng_.bernoulli(0.8)) dest = ip;
    } else {
      for (std::uint64_t n = 1 + rng_.uniform(4); n-- > 0;) {
        url.host += pick(kLabels);
        if (n != 0) url.host += '.';
      }
      if (rng_.bernoulli(0.15)) url.host += '.';
      if (rng_.bernoulli(0.05)) url.host.insert(0, ".");
      if (rng_.bernoulli(0.3)) dest = address();
    }
    url.path = pick(kPaths);
    url.query = pick(kQueries);
    return url;
  }

  std::string_view category() { return pick(kCategories); }
  std::int64_t time() {
    return static_cast<std::int64_t>(rng_.uniform(86'400 * 3));
  }
  bool coin() { return rng_.bernoulli(0.5); }

 private:
  template <typename T, std::size_t N>
  const T& pick(const std::array<T, N>& items) {
    return items[rng_.uniform(N)];
  }
  net::Ipv4Addr address() { return *net::Ipv4Addr::parse(pick(kAddresses)); }

  static constexpr std::array<const char*, 20> kKeywords{
      "",    "proxy", "PROXY", "Israel", "he",       "she",  "hers",
      "his", "a/b",   "/x",    "x?y",    "?",        "/",    "?q=",
      "\xc3\xa9", "caf\xc3\xa9", "com/", ".com", "a", "IL/"};
  static constexpr std::array<const char*, 20> kDomains{
      "",          ".",         "..",           ".il",   ".IL",
      "il",        "co.il",     "skype.com",    "SKYPE.COM",
      "com",       ".com",      "a.b",          "b",     "1.2.3.4",
      ".4",        "caf\xc3\xa9.sy", "skype.com.", "www.skype.com",
      "proxy.net", "a..b"};
  static constexpr std::array<const char*, 16> kLabels{
      "www", "skype", "com", "il", "co", "Skype", "COM", "proxy",
      "his", "a",     "b",   "caf\xc3\xa9", "sy", "net", "", "IL"};
  static constexpr std::array<const char*, 8> kPaths{
      "", "", "/", "/a/b", "/proxy.php", "/x", "/She", "/caf\xc3\xa9"};
  static constexpr std::array<const char*, 7> kQueries{
      "", "", "q=1", "y", "hers", "x?y", "ISRAEL"};
  static constexpr std::array<const char*, 5> kAddresses{
      "1.2.3.4", "1.2.3.5", "84.229.3.4", "10.0.0.1", "212.150.1.10"};
  static constexpr std::array<int, 6> kPrefixes{0, 8, 16, 24, 31, 32};
  static constexpr std::array<std::uint16_t, 4> kPorts{80, 443, 9001, 8080};
  static constexpr std::array<const char*, 4> kCategories{
      "", "Blocked sites", "blocked sites", "other"};
  static constexpr std::array<double, 5> kIntensities{0.0, 0.3, 0.7, 1.0,
                                                      -1.0};

  util::Rng rng_;
};

TEST(CompiledPolicy, MatchesLinearWalkOnRandomRuleLists) {
  CompiledVsLinear checker{11};
  for (std::uint64_t list = 0; list < 400; ++list) {
    RandomPolicy random{list};
    std::vector<Rule> rules(1 + list % 40);
    for (std::size_t i = 0; i < rules.size(); ++i)
      rules[i] = random.rule({rules.begin(), rules.begin() + i});
    // Half through the constructor, half one add() at a time.
    PolicyEngine engine;
    if (list % 2 == 0) {
      engine = PolicyEngine{rules};
    } else {
      for (const Rule& rule : rules) engine.add(rule);
    }
    ASSERT_EQ(engine.rules().size(), rules.size());
    for (int r = 0; r < 200; ++r) {
      std::optional<net::Ipv4Addr> dest;
      const net::Url url = random.url(dest);
      const FilterRequest request{&url, dest, random.time(),
                                  random.category()};
      checker.check(engine, request, "rule list " + std::to_string(list));
    }
  }
  EXPECT_EQ(checker.requests(), 400u * 200u);
  EXPECT_EQ(checker.failures(), 0u);
  for (std::size_t kind = 0; kind < kRuleKindCount; ++kind)
    EXPECT_GT(checker.decided_by(kind), 0u) << kRuleKindNames[kind];
}

TEST(CompiledPolicy, EdgeCasesOfTheCompiledTables) {
  PolicyEngine engine;
  const auto empty_domain =
      engine.add({DomainRule{""}, PolicyAction::kDeny, ""});
  const auto dot = engine.add({DomainRule{"."}, PolicyAction::kDeny, ""});
  const auto tld = engine.add({DomainRule{".IL"}, PolicyAction::kDeny, ""});
  const auto word = engine.add({KeywordRule{"X?Y"}, PolicyAction::kDeny, ""});
  const auto empty_keyword =
      engine.add({KeywordRule{""}, PolicyAction::kRedirect, ""});
  util::Rng rng{1};
  const auto decide = [&](const char* text) {
    const net::Url url = url_of(text);
    return engine.evaluate(request_for(url), rng).rule_index;
  };
  EXPECT_NE(empty_domain, decide("http://a.com/"));
  EXPECT_EQ(decide("http://a.com./"), dot);          // trailing-dot host
  EXPECT_EQ(decide("http://www.Panet.CO.il/"), tld);  // any case
  EXPECT_EQ(decide("http://a.com/x?y=1"), word);      // spans the '?'
  EXPECT_EQ(decide("http://a.com/x"), empty_keyword);  // matches anything
  net::Url no_path = url_of("http://a.com/");
  no_path.path.clear();
  no_path.query = "y";
  // Empty path: the text is "a.com?y", which has no "x?y".
  EXPECT_EQ(engine.evaluate(request_for(no_path), rng).rule_index,
            empty_keyword);
}

}  // namespace
