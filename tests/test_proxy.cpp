// Proxy layer: exception taxonomy, classification, response cache,
// error model, the SgProxy pipeline and the farm's routing.

#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "policy/syria.h"
#include "proxy/cache.h"
#include "proxy/error_model.h"
#include "proxy/farm.h"
#include "proxy/sg_proxy.h"
#include "tor/relay_directory.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::proxy;

// --- Exceptions / classification ---------------------------------------------

TEST(Exceptions, RoundTripStrings) {
  for (std::size_t i = 0; i < kExceptionCount; ++i) {
    const auto id = static_cast<ExceptionId>(i);
    const auto text = to_string(id);
    const auto parsed = parse_exception(text);
    ASSERT_TRUE(parsed) << text;
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(parse_exception("no_such_exception"));
}

TEST(Exceptions, PolicyVsError) {
  EXPECT_TRUE(is_policy_exception(ExceptionId::kPolicyDenied));
  EXPECT_TRUE(is_policy_exception(ExceptionId::kPolicyRedirect));
  EXPECT_FALSE(is_policy_exception(ExceptionId::kNone));
  EXPECT_FALSE(is_policy_exception(ExceptionId::kTcpError));
  EXPECT_TRUE(is_error_exception(ExceptionId::kTcpError));
  EXPECT_TRUE(is_error_exception(ExceptionId::kDnsServerFailure));
  EXPECT_FALSE(is_error_exception(ExceptionId::kNone));
  EXPECT_FALSE(is_error_exception(ExceptionId::kPolicyDenied));
}

TEST(FilterResults, RoundTripStrings) {
  for (const auto result : {FilterResult::kObserved, FilterResult::kProxied,
                            FilterResult::kDenied}) {
    EXPECT_EQ(parse_filter_result(to_string(result)), result);
  }
  EXPECT_FALSE(parse_filter_result("MAYBE"));
}

TEST(Classification, Section33Semantics) {
  LogRecord record;
  record.filter_result = FilterResult::kObserved;
  record.exception = ExceptionId::kNone;
  EXPECT_EQ(classify(record), TrafficClass::kAllowed);

  record.filter_result = FilterResult::kDenied;
  record.exception = ExceptionId::kPolicyDenied;
  EXPECT_EQ(classify(record), TrafficClass::kCensored);

  record.exception = ExceptionId::kInternalError;
  EXPECT_EQ(classify(record), TrafficClass::kError);

  // PROXIED is its own class regardless of the stored exception.
  record.filter_result = FilterResult::kProxied;
  record.exception = ExceptionId::kPolicyDenied;
  EXPECT_EQ(classify(record), TrafficClass::kProxied);
  EXPECT_EQ(classify_by_exception(record.filter_result, record.exception),
            TrafficClass::kCensored);
}

// --- ResponseCache -------------------------------------------------------------

TEST(Cache, RejectsZeroCapacity) {
  EXPECT_THROW(ResponseCache(0), std::invalid_argument);
  EXPECT_THROW(ResponseCache(1, -5), std::invalid_argument);
}

TEST(Cache, HitReplaysStoredEntry) {
  ResponseCache cache{10};
  cache.admit("http://a/", {ExceptionId::kPolicyDenied, 403, 0}, 100);
  const auto* hit = cache.find("http://a/", 101);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->exception, ExceptionId::kPolicyDenied);
  EXPECT_EQ(hit->status, 403);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.find("http://b/", 101), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, TtlExpiry) {
  ResponseCache cache{10, 60};
  cache.admit("u", {ExceptionId::kNone, 200, 0}, 1000);
  EXPECT_NE(cache.find("u", 1059), nullptr);
  EXPECT_EQ(cache.find("u", 1060), nullptr);  // expired
  EXPECT_EQ(cache.size(), 0u);                // dropped on expiry
}

TEST(Cache, LruEviction) {
  ResponseCache cache{2};
  cache.admit("a", {}, 0);
  cache.admit("b", {}, 0);
  ASSERT_NE(cache.find("a", 1), nullptr);  // refresh a
  cache.admit("c", {}, 0);                 // evicts b (least recent)
  EXPECT_NE(cache.find("a", 2), nullptr);
  EXPECT_EQ(cache.find("b", 2), nullptr);
  EXPECT_NE(cache.find("c", 2), nullptr);
}

TEST(Cache, ReadmitRefreshes) {
  ResponseCache cache{2, 100};
  cache.admit("a", {ExceptionId::kNone, 200, 0}, 0);
  cache.admit("a", {ExceptionId::kNone, 304, 0}, 50);  // refresh, new expiry
  const auto* hit = cache.find("a", 120);               // 0+100 passed, 50+100 not
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, 304);
  EXPECT_EQ(cache.size(), 1u);
}

// The list + map LRU the flat cache replaced, kept as its oracle: every
// find/admit must agree with it on the returned entry, the recency order
// (snapshot), the size and the hit/miss tallies.
class OracleCache {
 public:
  OracleCache(std::size_t capacity, std::int64_t ttl)
      : capacity_(capacity), ttl_(ttl) {}

  const ResponseCache::Entry* find(std::string_view key, std::int64_t now) {
    const auto it = map_.find(std::string(key));
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    const ResponseCache::Entry& entry = it->second->entry;
    if (entry.expires_at != 0 && now >= entry.expires_at) {
      lru_.erase(it->second);
      map_.erase(it);
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->entry;
  }

  void admit(std::string_view key, ResponseCache::Entry entry,
             std::int64_t now) {
    if (ttl_ != 0 && entry.expires_at == 0) entry.expires_at = now + ttl_;
    const auto it = map_.find(std::string(key));
    if (it != map_.end()) {
      it->second->entry = entry;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
    lru_.push_front({std::string(key), entry});
    map_.emplace(lru_.front().key, lru_.begin());
  }

  std::vector<ResponseCache::SnapshotEntry> snapshot() const {
    return {lru_.begin(), lru_.end()};
  }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::size_t capacity_;
  std::int64_t ttl_;
  std::list<ResponseCache::SnapshotEntry> lru_;  // front = most recent
  std::unordered_map<std::string,
                     std::list<ResponseCache::SnapshotEntry>::iterator>
      map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

bool same_entry(const ResponseCache::Entry& a, const ResponseCache::Entry& b) {
  return a.exception == b.exception && a.status == b.status &&
         a.expires_at == b.expires_at;
}

::testing::AssertionResult same_snapshot(
    const std::vector<ResponseCache::SnapshotEntry>& got,
    const std::vector<ResponseCache::SnapshotEntry>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i].key != want[i].key || !same_entry(got[i].entry, want[i].entry))
      return ::testing::AssertionFailure()
             << "position " << i << ": " << got[i].key << " vs "
             << want[i].key;
  return ::testing::AssertionSuccess();
}

/// Drives `cache` and `oracle` through the same seeded find/admit sequence
/// over `keys` distinct keys, comparing after every operation. A full
/// snapshot comparison costs O(size), so caches above 64 entries compare
/// it every 8191 operations (and at the end) instead of every one.
void replay_against_oracle(ResponseCache& cache, OracleCache& oracle,
                           std::size_t keys, std::size_t ops,
                           std::uint64_t seed) {
  util::Rng rng{seed};
  const bool every_op = cache.capacity() <= 64;
  std::int64_t now = 1'000;
  for (std::size_t op = 0; op < ops; ++op) {
    now += static_cast<std::int64_t>(rng.uniform(4));
    const std::string key =
        "http://h" + std::to_string(rng.uniform(keys)) + ".example/p";
    if (rng.bernoulli(0.5)) {
      const auto* got = cache.find(key, now);
      const auto* want = oracle.find(key, now);
      ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op << " " << key;
      if (got != nullptr) {
        ASSERT_TRUE(same_entry(*got, *want)) << "op " << op;
      }
    } else {
      ResponseCache::Entry entry{
          static_cast<ExceptionId>(rng.uniform(kExceptionCount)),
          static_cast<std::uint16_t>(200 + rng.uniform(300)),
          // Now and then an explicit expiry instead of the ttl stamp.
          rng.bernoulli(0.1) ? now + static_cast<std::int64_t>(rng.uniform(50))
                             : 0};
      cache.admit(key, entry, now);
      oracle.admit(key, entry, now);
    }
    ASSERT_EQ(cache.size(), oracle.size()) << "op " << op;
    ASSERT_EQ(cache.hits(), oracle.hits()) << "op " << op;
    ASSERT_EQ(cache.misses(), oracle.misses()) << "op " << op;
    if (every_op || op % 8'191 == 0 || op + 1 == ops) {
      ASSERT_TRUE(same_snapshot(cache.snapshot(), oracle.snapshot()))
          << "op " << op;
    }
  }
}

TEST(Cache, MatchesListAndMapOracle) {
  struct Case {
    std::size_t capacity;
    std::size_t keys;
    std::size_t ops;
  };
  for (const Case c : {Case{1, 3, 4'000}, Case{2, 5, 4'000},
                       Case{64, 150, 10'000}, Case{60'000, 100'000, 200'000}}) {
    for (const std::int64_t ttl : {std::int64_t{0}, std::int64_t{40}}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        if (c.capacity == 60'000 && seed != 1) continue;  // one long run
        SCOPED_TRACE("capacity " + std::to_string(c.capacity) + " ttl " +
                     std::to_string(ttl) + " seed " + std::to_string(seed));
        ResponseCache cache{c.capacity, ttl};
        OracleCache oracle{c.capacity, ttl};
        replay_against_oracle(cache, oracle, c.keys, c.ops, seed);
        if (::testing::Test::HasFatalFailure()) return;
        // Without expiry nothing leaves but by eviction: the run filled
        // the cache and evicted from then on.
        if (ttl == 0) {
          EXPECT_EQ(cache.size(), c.capacity);
        }
      }
    }
  }
}

TEST(Cache, DeletionShiftsProbeChainBack) {
  // Keys sharing one home slot of the initial 16-slot index (std::hash is
  // the index hash) sit in one probe run; expiring the head of the run
  // must shift the rest back, or a lookup would stop at the hole. The
  // behaviour is checked either way — the collision only makes the shift
  // certain to happen.
  std::vector<std::string> run;
  for (std::size_t i = 0; run.size() < 5; ++i) {
    std::string key = "k" + std::to_string(i);
    if ((std::hash<std::string_view>{}(key) & 15) == 3)
      run.push_back(std::move(key));
  }
  ResponseCache cache{8, 0};
  cache.admit(run[0], {ExceptionId::kNone, 200, 10}, 0);  // expires at 10
  for (std::size_t i = 1; i < run.size(); ++i)
    cache.admit(run[i], {ExceptionId::kNone, 200, 0}, 0);
  EXPECT_EQ(cache.find(run[0], 10), nullptr);  // expired: erased
  EXPECT_EQ(cache.size(), run.size() - 1);
  for (std::size_t i = 1; i < run.size(); ++i)
    EXPECT_NE(cache.find(run[i], 11), nullptr) << run[i];
  // Eviction erases from the middle of the run too.
  cache.admit("x1", {}, 12);
  cache.admit("x2", {}, 12);
  cache.admit("x3", {}, 12);
  cache.admit("x4", {}, 12);  // full (8): the next admit evicts run[1]
  cache.admit("x5", {}, 12);
  EXPECT_EQ(cache.find(run[1], 13), nullptr);
  for (std::size_t i = 2; i < run.size(); ++i)
    EXPECT_NE(cache.find(run[i], 13), nullptr) << run[i];
}

TEST(Cache, RestoreOfSnapshotRoundTrips) {
  for (const std::int64_t ttl : {std::int64_t{0}, std::int64_t{40}}) {
    ResponseCache cache{64, ttl};
    OracleCache oracle{64, ttl};
    replay_against_oracle(cache, oracle, 150, 5'000, 7);
    ResponseCache restored{64, ttl};
    restored.restore(cache.snapshot(), cache.hits(), cache.misses());
    EXPECT_TRUE(same_snapshot(restored.snapshot(), cache.snapshot()));
    EXPECT_EQ(restored.size(), cache.size());
    EXPECT_EQ(restored.hits(), cache.hits());
    EXPECT_EQ(restored.misses(), cache.misses());
    // The restored cache behaves exactly like the original from here on.
    replay_against_oracle(restored, oracle, 150, 5'000, 8);
  }
}

TEST(Cache, RestoreRefusesDuplicateAndOversizeSnapshots) {
  ResponseCache cache{2};
  const ResponseCache::Entry entry{};
  EXPECT_THROW(cache.restore({{"a", entry}, {"a", entry}}, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(cache.restore({{"a", entry}, {"b", entry}, {"c", entry}}, 0, 0),
               std::invalid_argument);
  cache.restore({{"a", entry}, {"b", entry}}, 3, 4);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 4u);
  cache.admit("c", entry, 0);  // evicts b, the least recent
  EXPECT_EQ(cache.find("b", 0), nullptr);
  EXPECT_NE(cache.find("a", 0), nullptr);
}

// --- ErrorModel ----------------------------------------------------------------

TEST(ErrorModel, RatesMatchSampling) {
  const ErrorModel model{};
  util::Rng rng{5};
  std::array<std::uint64_t, kExceptionCount> counts{};
  constexpr int kN = 2'000'000;
  for (int i = 0; i < kN; ++i)
    ++counts[static_cast<std::size_t>(model.sample(rng))];
  const double ok =
      counts[static_cast<std::size_t>(ExceptionId::kNone)] / double(kN);
  EXPECT_NEAR(ok, 1.0 - model.rates().total(), 0.001);
  const double tcp =
      counts[static_cast<std::size_t>(ExceptionId::kTcpError)] / double(kN);
  EXPECT_NEAR(tcp, model.rates().tcp_error, 0.001);
  const double internal =
      counts[static_cast<std::size_t>(ExceptionId::kInternalError)] /
      double(kN);
  EXPECT_NEAR(internal, model.rates().internal_error, 0.001);
  // Policy exceptions never come out of the error model.
  EXPECT_EQ(counts[static_cast<std::size_t>(ExceptionId::kPolicyDenied)], 0u);
}

TEST(ErrorModel, RejectsSaturatedRates) {
  ErrorRates rates;
  rates.tcp_error = 0.9;
  rates.internal_error = 0.2;
  EXPECT_THROW(ErrorModel{rates}, std::invalid_argument);
}

TEST(ErrorModel, StatusMapping) {
  EXPECT_EQ(ErrorModel::status_for(ExceptionId::kPolicyDenied), 403);
  EXPECT_EQ(ErrorModel::status_for(ExceptionId::kPolicyRedirect), 302);
  EXPECT_EQ(ErrorModel::status_for(ExceptionId::kTcpError), 503);
  EXPECT_EQ(ErrorModel::status_for(ExceptionId::kNone), 200);
}

// --- SgProxy ---------------------------------------------------------------------

class SgProxyTest : public ::testing::Test {
 protected:
  SgProxyTest()
      : relays_(tor::RelayDirectory::synthesize(50, 2)),
        policy_(policy::build_syria_policy(relays_, 7)) {}

  SgProxy make_proxy(std::uint8_t index = 0, SgProxyConfig config = {}) {
    return SgProxy{index, &policy_.proxies[index],
                   &policy_.custom_categories, config, util::Rng{99}};
  }

  static Request simple_request(const char* url_text) {
    Request request;
    request.time = 1312329600;  // 2011-08-03
    request.user_id = 42;
    request.user_agent = "test-agent";
    request.url = *net::Url::parse(url_text);
    return request;
  }

  tor::RelayDirectory relays_;
  policy::SyriaPolicy policy_;
};

TEST_F(SgProxyTest, RejectsNullPolicy) {
  SgProxyConfig config;
  EXPECT_THROW(SgProxy(0, nullptr, &policy_.custom_categories, config,
                       util::Rng{1}),
               std::invalid_argument);
}

TEST_F(SgProxyTest, CensorsBlacklistedDomain) {
  auto proxy = make_proxy();
  const auto record = proxy.process(simple_request("http://skype.com/"));
  EXPECT_EQ(record.filter_result, FilterResult::kDenied);
  EXPECT_EQ(record.exception, ExceptionId::kPolicyDenied);
  EXPECT_EQ(record.status, 403);
  EXPECT_EQ(record.categories, "unavailable");
}

TEST_F(SgProxyTest, RedirectsCategorizedPage) {
  auto proxy = make_proxy();
  const auto record = proxy.process(
      simple_request("http://www.facebook.com/Syrian.Revolution?ref=ts"));
  EXPECT_EQ(record.exception, ExceptionId::kPolicyRedirect);
  EXPECT_EQ(record.status, 302);
  EXPECT_EQ(record.categories, "Blocked sites; unavailable");
}

TEST_F(SgProxyTest, CategoriesLabelFollowsProxyStyle) {
  auto sg43 = make_proxy(1);
  const auto record = sg43.process(
      simple_request("http://www.facebook.com/Syrian.Revolution?ref=ts"));
  EXPECT_EQ(record.categories, "Blocked sites");
  const auto benign = sg43.process(simple_request("http://example.com/"));
  EXPECT_EQ(benign.categories, "none");
}

TEST_F(SgProxyTest, AllowsBenignTraffic) {
  SgProxyConfig config;
  config.error_rates = ErrorRates{0, 0, 0, 0, 0, 0, 0, 0};  // no noise
  auto proxy = make_proxy(0, config);
  const auto record = proxy.process(simple_request("http://example.com/x"));
  EXPECT_EQ(record.filter_result, FilterResult::kObserved);
  EXPECT_EQ(record.exception, ExceptionId::kNone);
  EXPECT_EQ(record.status, 200);
}

TEST_F(SgProxyTest, DestUnreachableForcesTcpError) {
  SgProxyConfig config;
  config.error_rates = ErrorRates{0, 0, 0, 0, 0, 0, 0, 0};
  auto proxy = make_proxy(0, config);
  Request request = simple_request("http://example.com/");
  request.dest_unreachable_prob = 1.0;
  const auto record = proxy.process(request);
  EXPECT_EQ(record.exception, ExceptionId::kTcpError);
}

TEST_F(SgProxyTest, CacheReplaysAsProxied) {
  SgProxyConfig config;
  config.error_rates = ErrorRates{0, 0, 0, 0, 0, 0, 0, 0};
  config.observed_admit_prob = 1.0;
  config.not_modified_prob = 0.0;
  auto proxy = make_proxy(0, config);
  Request request = simple_request("http://example.com/logo.png");
  request.cacheable = true;
  const auto first = proxy.process(request);
  EXPECT_EQ(first.filter_result, FilterResult::kObserved);
  request.time += 10;
  const auto second = proxy.process(request);
  EXPECT_EQ(second.filter_result, FilterResult::kProxied);
  EXPECT_EQ(second.exception, ExceptionId::kNone);
  // After TTL expiry it is fetched again.
  request.time += config.cache_ttl_seconds + 1;
  const auto third = proxy.process(request);
  EXPECT_EQ(third.filter_result, FilterResult::kObserved);
}

TEST_F(SgProxyTest, CensoredDecisionCanBeCachedAndReplayed) {
  SgProxyConfig config;
  config.policy_admit_prob = 1.0;
  auto proxy = make_proxy(0, config);
  Request request = simple_request("http://www.metacafe.com/");
  const auto first = proxy.process(request);
  EXPECT_EQ(first.filter_result, FilterResult::kDenied);
  request.time += 5;
  const auto second = proxy.process(request);
  EXPECT_EQ(second.filter_result, FilterResult::kProxied);
  EXPECT_EQ(second.exception, ExceptionId::kPolicyDenied);
}

TEST_F(SgProxyTest, UserHashStableAndNonZero) {
  auto proxy = make_proxy();
  const auto a = proxy.process(simple_request("http://example.com/"));
  const auto b = proxy.process(simple_request("http://example.com/2"));
  EXPECT_EQ(a.user_hash, b.user_hash);
  EXPECT_NE(a.user_hash, 0u);
}

TEST_F(SgProxyTest, ProxyAddressMatchesLeakRange) {
  auto sg48 = make_proxy(6);
  const auto record = sg48.process(simple_request("http://example.com/"));
  EXPECT_EQ(record.proxy_address().to_string(), "82.137.200.48");
}

// --- ProxyFarm -----------------------------------------------------------------

class FarmTest : public ::testing::Test {
 protected:
  FarmTest()
      : relays_(tor::RelayDirectory::synthesize(50, 2)),
        policy_(policy::build_syria_policy(relays_, 7)),
        farm_(&policy_, SgProxyConfig{}, 2011) {}

  static Request request_from_user(std::uint64_t user, const char* url_text) {
    Request request;
    request.time = 1312329600;
    request.user_id = user;
    request.url = *net::Url::parse(url_text);
    return request;
  }

  tor::RelayDirectory relays_;
  policy::SyriaPolicy policy_;
  ProxyFarm farm_;
};

TEST_F(FarmTest, SevenProxies) { EXPECT_EQ(farm_.proxy_count(), 7u); }

TEST_F(FarmTest, HomeRoutingIsPerUserStable) {
  for (std::uint64_t user = 1; user <= 50; ++user) {
    const auto first =
        farm_.route(request_from_user(user, "http://example.com/"));
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(farm_.route(request_from_user(user, "http://example.com/")),
                first);
    }
  }
}

TEST_F(FarmTest, LoadSpreadsAcrossProxies) {
  std::array<int, 7> counts{};
  for (std::uint64_t user = 1; user <= 7000; ++user)
    ++counts[farm_.route(request_from_user(user, "http://example.com/"))];
  for (const int count : counts) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

TEST_F(FarmTest, AffinityPinsDomain) {
  farm_.add_affinity("metacafe.com", 6, 1.0);
  for (std::uint64_t user = 1; user <= 100; ++user) {
    EXPECT_EQ(
        farm_.route(request_from_user(user, "http://www.metacafe.com/x")),
        6u);
  }
}

TEST_F(FarmTest, PartialAffinitySplitsTraffic) {
  farm_.add_affinity("skype.com", 6, 0.5);
  farm_.add_affinity("skype.com", 3, 0.4);
  std::array<int, 7> counts{};
  for (std::uint64_t user = 1; user <= 10000; ++user)
    ++counts[farm_.route(request_from_user(user, "http://skype.com/"))];
  EXPECT_NEAR(counts[6] / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(counts[3] / 10000.0, 0.4 + 0.1 / 7.0, 0.03);
}

TEST_F(FarmTest, AffinityValidation) {
  EXPECT_THROW(farm_.add_affinity("x.com", 7, 0.5), std::out_of_range);
  EXPECT_THROW(farm_.add_affinity("x.com", 0, 1.5), std::invalid_argument);
}

TEST_F(FarmTest, RouteIsConstAndMatchesDeepSubdomainSuffixes) {
  // route() walks the host's suffixes through the heterogeneous
  // string_view lookup; it is const and a pure function of the request.
  farm_.add_affinity("metacafe.com", 6, 1.0);
  const ProxyFarm& farm = farm_;
  const auto request =
      request_from_user(3, "http://cdn.videos.www.metacafe.com/clip/1");
  EXPECT_EQ(farm.route(request), 6u);
  EXPECT_EQ(farm.route(request), farm.route(request));
  // An unrelated host whose *label* merely ends in the domain must not
  // match (the suffix walk is dot-delimited): it falls through to the
  // user's home proxy, like any unpinned host.
  EXPECT_EQ(farm.route(request_from_user(3, "http://notmetacafe.com/")),
            farm.route(request_from_user(3, "http://example.com/")));
}

TEST_F(FarmTest, ProcessStampsProxyIndex) {
  farm_.add_affinity("metacafe.com", 6, 1.0);
  const auto record =
      farm_.process(request_from_user(9, "http://www.metacafe.com/"));
  EXPECT_EQ(record.proxy_index, 6);
  EXPECT_EQ(record.exception, ExceptionId::kPolicyDenied);
}

}  // namespace
