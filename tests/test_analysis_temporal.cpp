// Temporal analyses (Figs. 5-7, Table 5/6/7): time series, RCV, windowed
// tops, proxy comparison and redirects.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/proxy_compare.h"
#include "analysis/redirects.h"
#include "analysis/temporal.h"
#include "util/rng.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

constexpr std::int64_t kT0 = 1312329600;  // 2011-08-03 00:00

proxy::LogRecord rec(const char* url_text, std::int64_t time,
                     proxy::ExceptionId exception = proxy::ExceptionId::kNone,
                     std::uint8_t proxy_index = 0,
                     std::uint64_t user = 1) {
  proxy::LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = user;
  record.url = *net::Url::parse(url_text);
  record.filter_result = exception == proxy::ExceptionId::kNone
                             ? proxy::FilterResult::kObserved
                             : proxy::FilterResult::kDenied;
  record.exception = exception;
  return record;
}

TEST(TimeSeries, BinsAndNormalizes) {
  Dataset dataset;
  dataset.add(rec("http://a.com/", kT0 + 10));
  dataset.add(rec("http://a.com/", kT0 + 20));
  dataset.add(rec("http://x.com/", kT0 + 400,
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://a.com/", kT0 + 700));
  dataset.add(rec("http://e.com/", kT0 + 50, proxy::ExceptionId::kTcpError));

  const auto series =
      traffic_time_series(dataset, TrafficSeriesOptions{{kT0, kT0 + 900}});
  ASSERT_EQ(series.allowed.bin_count(), 3u);
  EXPECT_EQ(series.allowed.at(0), 2u);   // errors excluded
  EXPECT_EQ(series.allowed.at(2), 1u);
  EXPECT_EQ(series.censored.at(1), 1u);
  const auto normalized = series.normalized_allowed();
  EXPECT_NEAR(normalized[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(normalized[2], 1.0 / 3.0, 1e-12);
}

TEST(TimeSeries, RejectsBadWindow) {
  Dataset dataset;
  EXPECT_THROW(
      traffic_time_series(dataset, TrafficSeriesOptions{{100, 100}, {300}}),
      std::invalid_argument);
}

TEST(Rcv, PerBinCensoredFraction) {
  Dataset dataset;
  // Bin 0: 1 of 4 censored. Bin 1: empty. Bin 2: 2 of 2 censored.
  for (int i = 0; i < 3; ++i) dataset.add(rec("http://a.com/", kT0 + i));
  dataset.add(rec("http://x.com/", kT0 + 5,
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://x.com/", kT0 + 610,
                  proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://y.com/", kT0 + 620,
                  proxy::ExceptionId::kPolicyDenied));

  const auto series = rcv_series(dataset, RcvOptions{{kT0, kT0 + 900}});
  ASSERT_EQ(series.rcv.size(), 3u);
  EXPECT_NEAR(series.rcv[0], 0.25, 1e-12);
  EXPECT_EQ(series.rcv[1], 0.0);
  EXPECT_NEAR(series.rcv[2], 1.0, 1e-12);
  EXPECT_EQ(series.peak_bin(), 2u);
}

TEST(WindowedTop, Table5Shape) {
  Dataset dataset;
  // Morning window: skype dominates; midday window: facebook.
  for (int i = 0; i < 5; ++i)
    dataset.add(rec("http://skype.com/", kT0 + 6 * 3600 + i,
                    proxy::ExceptionId::kPolicyDenied));
  dataset.add(rec("http://www.facebook.com/p", kT0 + 6 * 3600 + 10,
                  proxy::ExceptionId::kPolicyDenied));
  for (int i = 0; i < 4; ++i)
    dataset.add(rec("http://www.facebook.com/p", kT0 + 10 * 3600 + i,
                    proxy::ExceptionId::kPolicyDenied));

  const WindowedTopOptions options{
      {
          {kT0 + 6 * 3600, kT0 + 8 * 3600},
          {kT0 + 10 * 3600, kT0 + 12 * 3600},
      },
      3};
  const auto result = windowed_top_censored(dataset, options);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].top[0].domain, "skype.com");
  EXPECT_NEAR(result[0].top[0].share, 5.0 / 6.0, 1e-12);
  EXPECT_EQ(result[1].top[0].domain, "facebook.com");
}

TEST(ProxyLoad, SharesSumToOne) {
  Dataset dataset;
  for (std::uint8_t p = 0; p < 7; ++p) {
    for (int i = 0; i <= p; ++i)
      dataset.add(rec("http://a.com/", kT0 + 100, {}, p));
  }
  dataset.add(rec("http://x.com/", kT0 + 100,
                  proxy::ExceptionId::kPolicyDenied, 6));

  const auto series = proxy_load_series(dataset, ProxyLoadOptions{{kT0, kT0 + 3600}, {3600}});
  ASSERT_EQ(series.bin_count(), 1u);
  double sum = 0.0;
  for (std::size_t p = 0; p < 7; ++p) sum += series.total_share(p, 0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(series.censored_share(6, 0), 1.0, 1e-12);
  EXPECT_EQ(series.censored_share(0, 0), 0.0);
}

TEST(ProxySimilarity, IdentProfilesSimilarDisjointNot) {
  Dataset dataset;
  // SG-42 and SG-43 censor the same domain mix; SG-48 censors only
  // metacafe.
  for (int i = 0; i < 10; ++i) {
    dataset.add(rec("http://www.facebook.com/x", kT0 + i,
                    proxy::ExceptionId::kPolicyDenied, 0));
    dataset.add(rec("http://www.facebook.com/x", kT0 + i,
                    proxy::ExceptionId::kPolicyDenied, 1));
    dataset.add(rec("http://www.metacafe.com/w", kT0 + i,
                    proxy::ExceptionId::kPolicyDenied, 6));
  }
  dataset.add(rec("http://skype.com/", kT0, proxy::ExceptionId::kPolicyDenied,
                  0));
  dataset.add(rec("http://skype.com/", kT0, proxy::ExceptionId::kPolicyDenied,
                  1));

  const auto similarity =
      censored_domain_similarity(dataset, SimilarityOptions{{kT0, kT0 + 3600}});
  EXPECT_NEAR(similarity.matrix[0][1], 1.0, 1e-9);
  EXPECT_NEAR(similarity.matrix[0][6], 0.0, 1e-9);
  EXPECT_EQ(similarity.matrix[3][3], 1.0);
  // Symmetry.
  for (int a = 0; a < 7; ++a)
    for (int b = 0; b < 7; ++b)
      EXPECT_NEAR(similarity.matrix[a][b], similarity.matrix[b][a], 1e-12);
}

TEST(CategoryLabels, PerProxyCounts) {
  Dataset dataset;
  proxy::LogRecord a = rec("http://a.com/", kT0, {}, 0);
  a.categories = "unavailable";
  proxy::LogRecord b = rec("http://a.com/", kT0, {}, 1);
  b.categories = "none";
  dataset.add(a);
  dataset.add(a);
  dataset.add(b);

  const auto labels = proxy_category_labels(dataset);
  ASSERT_EQ(labels.labels[0].size(), 1u);
  EXPECT_EQ(labels.labels[0][0].label, "unavailable");
  EXPECT_EQ(labels.labels[0][0].count, 2u);
  EXPECT_EQ(labels.labels[1][0].label, "none");
  EXPECT_TRUE(labels.labels[2].empty());
}

TEST(Redirects, RanksHostsBySeparateHostname) {
  Dataset dataset;
  for (int i = 0; i < 5; ++i)
    dataset.add(rec("http://upload.youtube.com/u", kT0 + i,
                    proxy::ExceptionId::kPolicyRedirect));
  dataset.add(rec("http://www.facebook.com/Syrian.Revolution?ref=ts",
                  kT0 + 9, proxy::ExceptionId::kPolicyRedirect));
  dataset.add(rec("http://ar-ar.facebook.com/Syrian.Revolution?ref=ts",
                  kT0 + 9, proxy::ExceptionId::kPolicyRedirect));
  dataset.add(rec("http://upload.youtube.com/u", kT0 + 10,
                  proxy::ExceptionId::kPolicyDenied));  // not a redirect

  const auto hosts = redirect_hosts(dataset);
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0].host, "upload.youtube.com");
  EXPECT_EQ(hosts[0].requests, 5u);
  EXPECT_NEAR(hosts[0].share, 5.0 / 7.0, 1e-12);
  // www and ar-ar count separately, as in Table 7.
  EXPECT_EQ(hosts[1].requests, 1u);
  EXPECT_EQ(hosts[2].requests, 1u);
}

TEST(Redirects, NoFollowupsWhenTargetBypassesProxies) {
  Dataset dataset;
  dataset.add(rec("http://upload.youtube.com/u", kT0,
                  proxy::ExceptionId::kPolicyRedirect, 0, 5));
  // Same user's next request is 10 seconds later: outside the window.
  dataset.add(rec("http://other.com/", kT0 + 10, {}, 0, 5));
  EXPECT_EQ(redirect_followups(dataset, {.window_seconds = 2}), 0u);
}

TEST(Redirects, DetectsFollowupInsideWindow) {
  Dataset dataset;
  dataset.add(rec("http://upload.youtube.com/u", kT0,
                  proxy::ExceptionId::kPolicyRedirect, 0, 5));
  dataset.add(rec("http://landing.sy/", kT0 + 1, {}, 0, 5));
  EXPECT_EQ(redirect_followups(dataset, {.window_seconds = 2}), 1u);
}

// Emission order is time-sorted only up to jitter inside a 300 s slot. A
// forward scan missed both of these; the rule reads only user, host and
// time.
TEST(Redirects, FollowupEmittedBeforeItsRedirectCounts) {
  Dataset dataset;
  dataset.add(rec("http://landing.sy/", kT0 + 1, {}, 0, 5));
  dataset.add(rec("http://upload.youtube.com/u", kT0,
                  proxy::ExceptionId::kPolicyRedirect, 0, 5));
  EXPECT_EQ(redirect_followups(dataset, {.window_seconds = 2}), 1u);
}

TEST(Redirects, LaterStampedRowDoesNotExpireAPendingRedirect) {
  Dataset dataset;
  dataset.add(rec("http://upload.youtube.com/u", kT0,
                  proxy::ExceptionId::kPolicyRedirect, 0, 5));
  dataset.add(rec("http://other.com/", kT0 + 200, {}, 0, 9));  // past t + 2
  dataset.add(rec("http://landing.sy/", kT0 + 2, {}, 0, 5));
  EXPECT_EQ(redirect_followups(dataset, {.window_seconds = 2}), 1u);
}

TEST(Redirects, WindowBoundsAndHostRule) {
  Dataset dataset;
  dataset.add(rec("http://upload.youtube.com/u", kT0 + 10,
                  proxy::ExceptionId::kPolicyRedirect, 0, 5));
  dataset.add(rec("http://before.sy/", kT0 + 9, {}, 0, 5));   // before t
  dataset.add(rec("http://late.sy/", kT0 + 13, {}, 0, 5));    // after t + 2
  dataset.add(rec("http://upload.youtube.com/v", kT0 + 11, {}, 0, 5));
  dataset.add(rec("http://landing.sy/", kT0 + 11, {}, 0, 6));  // other user
  EXPECT_EQ(redirect_followups(dataset, {.window_seconds = 2}), 0u);
  dataset.add(rec("http://landing.sy/", kT0 + 12, {}, 0, 5));  // t + 2
  EXPECT_EQ(redirect_followups(dataset, {.window_seconds = 2}), 1u);
  // Rows without a client hash never follow up, nor are redirected users.
  Dataset anonymous;
  anonymous.add(rec("http://upload.youtube.com/u", kT0,
                    proxy::ExceptionId::kPolicyRedirect, 0, 0));
  anonymous.add(rec("http://landing.sy/", kT0 + 1, {}, 0, 0));
  EXPECT_EQ(redirect_followups(anonymous, {.window_seconds = 2}), 0u);
}

TEST(Redirects, CountIsTheSameForAnyOrderWithinASlot) {
  // Redirects and same-user traffic jittered inside 300 s slots, across
  // more rows than one 64Ki-row partition holds so the OR-fold of
  // partitions is exercised; shuffling rows within each slot, at 1 and 4
  // threads, must not move the count.
  util::Rng rng{8};
  std::vector<proxy::LogRecord> rows;
  for (int i = 0; i < 90'000; ++i) {
    const std::int64_t slot = kT0 + 300 * (i / 400);
    const std::uint64_t user = 1 + rng.uniform(60);
    const bool redirect = rng.bernoulli(0.01);
    rows.push_back(rec(redirect ? "http://upload.youtube.com/u"
                                : (rng.bernoulli(0.5) ? "http://landing.sy/"
                                                      : "http://a.com/"),
                       slot + static_cast<std::int64_t>(rng.uniform(300)),
                       redirect ? proxy::ExceptionId::kPolicyRedirect
                                : proxy::ExceptionId::kNone,
                       0, user));
  }
  const auto count_of = [](const std::vector<proxy::LogRecord>& records,
                           std::size_t threads) {
    Dataset dataset;
    for (const auto& record : records) dataset.add(record);
    return redirect_followups(dataset, {.window_seconds = 2}, threads);
  };
  const std::uint64_t reference = count_of(rows, 1);
  EXPECT_GT(reference, 0u);
  EXPECT_EQ(count_of(rows, 4), reference);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t begin = 0; begin < rows.size(); begin += 400) {
      const auto first = rows.begin() + static_cast<std::ptrdiff_t>(begin);
      std::shuffle(first, first + 400, rng);
    }
    EXPECT_EQ(count_of(rows, 1), reference) << "round " << round;
    EXPECT_EQ(count_of(rows, 4), reference) << "round " << round;
  }
}

}  // namespace
