// Dataset store: interning, classification, arrival order, chunking, and
// the derived Table 1 views (derive_sources, masked views), all checked
// through the LogSource records a scan sees.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/scan.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;

proxy::LogRecord make_record(const char* url_text, std::int64_t time,
                             proxy::FilterResult result,
                             proxy::ExceptionId exception,
                             std::uint8_t proxy_index = 0,
                             std::uint64_t user_hash = 7) {
  proxy::LogRecord record;
  record.time = time;
  record.proxy_index = proxy_index;
  record.user_hash = user_hash;
  record.method = "GET";
  record.url = *net::Url::parse(url_text);
  record.filter_result = result;
  record.exception = exception;
  return record;
}

std::int64_t at(int month, int day, int hour = 12) {
  return util::to_unix_seconds({2011, month, day, hour, 0, 0});
}

/// Every record of the dataset as the scan layer presents it.
std::vector<Record> records_of(const Dataset& dataset) {
  std::vector<Record> records;
  scan_increment(LogSource{dataset}, 0,
                 [&](const Record& r) { records.push_back(r); });
  return records;
}

TEST(Dataset, InternsRepeatedStrings) {
  Dataset dataset;
  for (int i = 0; i < 100; ++i) {
    dataset.add(make_record("http://www.facebook.com/home.php", at(8, 1),
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  EXPECT_EQ(dataset.size(), 100u);
  const auto records = records_of(dataset);
  ASSERT_EQ(records.size(), 100u);
  EXPECT_EQ(records.front().host_id, records.back().host_id);
  EXPECT_EQ(records.front().host.data(), records.back().host.data());
  EXPECT_EQ(records.front().host, "www.facebook.com");
  EXPECT_EQ(records.front().path, "/home.php");
}

TEST(Dataset, ChunksRowsIntoFixedPartitions) {
  Dataset dataset;
  for (std::size_t i = 0; i < Dataset::kChunkRows + 3; ++i) {
    dataset.add(make_record("http://a.com/", at(8, 1) + i % 7,
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  const LogSource source{dataset};
  ASSERT_EQ(source.partitions(), 2u);
  EXPECT_EQ(source.partition_base_end(0), Dataset::kChunkRows);
  EXPECT_EQ(source.partition_base_end(1), Dataset::kChunkRows + 3);
  std::uint64_t expected = 0;
  for (std::size_t p = 0; p < source.partitions(); ++p)
    source.scan_partition(p, [&](const Record& r) {
      EXPECT_EQ(r.ordinal, expected++);
    });
  EXPECT_EQ(expected, Dataset::kChunkRows + 3);
}

TEST(Dataset, KeepsArrivalOrderAndTracksTimeBounds) {
  Dataset dataset;
  for (const auto& [host, day] :
       {std::pair{"http://b.com/", 3}, {"http://a.com/", 1},
        {"http://c.com/", 2}}) {
    dataset.add(make_record(host, at(8, day), proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  const auto records = records_of(dataset);
  EXPECT_EQ(records[0].host, "b.com");
  EXPECT_EQ(records[1].host, "a.com");
  EXPECT_EQ(dataset.first_time(), at(8, 1));
  EXPECT_EQ(dataset.last_time(), at(8, 3));
  const auto bounds = LogSource{dataset}.time_bounds();
  EXPECT_EQ(bounds.first, at(8, 1));
  EXPECT_EQ(bounds.last, at(8, 3));
}

TEST(Dataset, HostValuesResolvedAtAdd) {
  Dataset dataset;
  dataset.add(make_record("http://ar-ar.facebook.com/x", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  // A query string equal to a later host must not pre-empt that host's
  // entry: only host ids are resolved.
  dataset.add(make_record("http://a.com/x?10.0.0.1", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://10.0.0.1/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  const auto records = records_of(dataset);
  EXPECT_EQ(records[0].domain, "facebook.com");
  EXPECT_FALSE(records[0].host_is_ip);
  EXPECT_FALSE(records[1].host_is_ip);
  EXPECT_TRUE(records[2].host_is_ip);
  EXPECT_EQ(records[2].host_ip, net::Ipv4Addr(10, 0, 0, 1).value());
}

TEST(Dataset, RecordFilterTextIncludesQuery) {
  Dataset dataset;
  dataset.add(make_record("http://g.com/tbproxy/af/query?q=1", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  std::string text;
  scan_increment(LogSource{dataset}, 0,
                 [&](const Record& r) { text = r.filter_text(); });
  EXPECT_EQ(text, "g.com/tbproxy/af/query?q=1");
}

TEST(Dataset, ClassMatchesSection33) {
  Dataset dataset;
  dataset.add(make_record("http://a.com/", at(8, 1),
                          proxy::FilterResult::kObserved,
                          proxy::ExceptionId::kNone));
  dataset.add(make_record("http://b.com/", at(8, 1),
                          proxy::FilterResult::kDenied,
                          proxy::ExceptionId::kPolicyDenied));
  dataset.add(make_record("http://c.com/", at(8, 1),
                          proxy::FilterResult::kDenied,
                          proxy::ExceptionId::kTcpError));
  dataset.add(make_record("http://d.com/", at(8, 1),
                          proxy::FilterResult::kProxied,
                          proxy::ExceptionId::kNone));
  const auto records = records_of(dataset);
  EXPECT_EQ(records[0].cls, proxy::TrafficClass::kAllowed);
  EXPECT_EQ(records[1].cls, proxy::TrafficClass::kCensored);
  EXPECT_EQ(records[2].cls, proxy::TrafficClass::kError);
  EXPECT_EQ(records[3].cls, proxy::TrafficClass::kProxied);
}

TEST(Masked, RejectsMaskOfWrongLength) {
  Dataset dataset;
  for (int i = 0; i < 3; ++i) {
    dataset.add(make_record("http://a.com/", at(8, 1),
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
  }
  const LogSource source{dataset};
  for (const std::size_t size : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_THROW(source.masked(std::make_shared<std::vector<std::uint8_t>>(
                     size, std::uint8_t{1})),
                 std::invalid_argument)
        << size;
  }
  EXPECT_THROW(source.masked(nullptr), std::invalid_argument);
  const auto view = source.masked(
      std::make_shared<std::vector<std::uint8_t>>(
          std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_EQ(view.rows(), 2u);
}

TEST(DeriveSources, SplitsCorrectly) {
  Dataset full;
  // SG-42 on July 22 with hash (Duser material).
  full.add(make_record("http://a.com/", at(7, 22),
                       proxy::FilterResult::kObserved,
                       proxy::ExceptionId::kNone, 0, 11));
  // SG-42 on July 22 but hash suppressed: excluded from Duser.
  full.add(make_record("http://a2.com/", at(7, 22),
                       proxy::FilterResult::kObserved,
                       proxy::ExceptionId::kNone, 0, 0));
  // SG-44 in August: not Duser.
  full.add(make_record("http://b.com/", at(8, 3),
                       proxy::FilterResult::kDenied,
                       proxy::ExceptionId::kPolicyDenied, 2, 0));
  // Error: lands in Ddenied.
  full.add(make_record("http://c.com/", at(8, 4),
                       proxy::FilterResult::kDenied,
                       proxy::ExceptionId::kTcpError, 3, 0));

  const auto derived = derive_sources(full, 1);
  EXPECT_EQ(derived.full.rows(), 4u);
  ASSERT_EQ(derived.user.rows(), 1u);
  scan_increment(derived.user, 0,
                 [](const Record& r) { EXPECT_EQ(r.host, "a.com"); });
  EXPECT_EQ(derived.denied.rows(), 2u);
  EXPECT_LE(derived.sample.rows(), derived.full.rows());
  // Views are only defined over an unmasked Dfull.
  EXPECT_THROW(derive_sources(derived.denied, 1), std::invalid_argument);
}

Dataset uniform_log(int rows) {
  Dataset full;
  for (int i = 0; i < rows; ++i) {
    full.add(make_record("http://a.com/", at(8, 1) + i,
                         proxy::FilterResult::kObserved,
                         proxy::ExceptionId::kNone));
  }
  return full;
}

TEST(DeriveSources, SampleRateApproximatelyHonored) {
  const Dataset full = uniform_log(50'000);
  const auto derived = derive_sources(full, 3);
  EXPECT_NEAR(derived.sample.rows() / 50'000.0, 0.04, 0.005);
}

TEST(DeriveSources, SampleIsDeterministicAndThreadInvariant) {
  const Dataset full = uniform_log(5000);
  const auto members = [&](std::size_t threads) {
    std::vector<std::uint64_t> ordinals;
    scan_increment(derive_sources(full, 77, threads).sample, 0,
                   [&](const Record& r) { ordinals.push_back(r.ordinal); });
    return ordinals;
  };
  const auto reference = members(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(members(1), reference);
  EXPECT_EQ(members(4), reference);
}

TEST(DeriveSources, SampleDrawFollowsTimeOrderNotArrivalOrder) {
  // The same records in two arrival orders: the Bernoulli draw walks
  // them in stable time order, so the sampled set is identical.
  Dataset forward, backward;
  constexpr int kRows = 3000;
  for (int i = 0; i < kRows; ++i) {
    forward.add(make_record("http://a.com/", at(8, 1) + i,
                            proxy::FilterResult::kObserved,
                            proxy::ExceptionId::kNone));
    backward.add(make_record("http://a.com/", at(8, 1) + (kRows - 1 - i),
                             proxy::FilterResult::kObserved,
                             proxy::ExceptionId::kNone));
  }
  const auto sampled_times = [](const Dataset& dataset) {
    std::vector<std::int64_t> times;
    scan_increment(derive_sources(dataset, 5).sample, 0,
                   [&](const Record& r) { times.push_back(r.time); });
    std::sort(times.begin(), times.end());
    return times;
  };
  EXPECT_EQ(sampled_times(forward), sampled_times(backward));
}

}  // namespace
