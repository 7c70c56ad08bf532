// Scenario integration: determinism, leak-filter semantics, global
// traffic proportions, affinity routing and temporal coverage.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "proxy/log_io.h"
#include "util/checksum.h"
#include "util/simtime.h"
#include "util/strings.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::workload;

ScenarioConfig small_config(std::uint64_t total = 120'000) {
  ScenarioConfig config;
  config.total_requests = total;
  config.user_population = 5'000;
  config.catalog_tail = 4'000;
  config.torrent_contents = 800;
  return config;
}

TEST(Scenario, DeterministicInSeed) {
  std::vector<std::string> first, second;
  for (auto* sink : {&first, &second}) {
    SyriaScenario scenario{small_config(20'000)};
    scenario.run([&](const proxy::LogRecord& record) {
      sink->push_back(proxy::to_csv(record));
    });
  }
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto config = small_config(20'000);
  std::size_t size_a = 0, size_b = 0;
  std::uint64_t hash_a = 0, hash_b = 0;
  {
    SyriaScenario scenario{config};
    scenario.run([&](const proxy::LogRecord& record) {
      ++size_a;
      hash_a ^= util::mix64(static_cast<std::uint64_t>(record.time) ^
                            record.user_hash);
    });
  }
  config.seed = 999;
  {
    SyriaScenario scenario{config};
    scenario.run([&](const proxy::LogRecord& record) {
      ++size_b;
      hash_b ^= util::mix64(static_cast<std::uint64_t>(record.time) ^
                            record.user_hash);
    });
  }
  EXPECT_NE(hash_a, hash_b);
}

class ScenarioRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new SyriaScenario{small_config(250'000)};
    records_ = new std::vector<proxy::LogRecord>;
    scenario_->run(
        [&](const proxy::LogRecord& record) { records_->push_back(record); });
  }
  static void TearDownTestSuite() {
    delete scenario_;
    delete records_;
    scenario_ = nullptr;
    records_ = nullptr;
  }

  static SyriaScenario* scenario_;
  static std::vector<proxy::LogRecord>* records_;
};

SyriaScenario* ScenarioRunTest::scenario_ = nullptr;
std::vector<proxy::LogRecord>* ScenarioRunTest::records_ = nullptr;

TEST_F(ScenarioRunTest, VolumeNearTarget) {
  // The leak filter drops 6/7 of three July days, so the retained volume
  // sits near total * (1 - 3/9 * 6/7).
  const double expected = 250'000.0 * (1.0 - 3.0 / 9.0 * 6.0 / 7.0);
  EXPECT_NEAR(static_cast<double>(records_->size()), expected,
              expected * 0.05);
}

TEST_F(ScenarioRunTest, JulyDaysAreSg42Only) {
  for (const auto& record : *records_) {
    if (sg42_only_day(record.time))
      ASSERT_EQ(record.proxy_index, 0) << util::format_datetime(record.time);
  }
}

TEST_F(ScenarioRunTest, UserHashesOnlyOnJuly2223) {
  bool saw_hash = false;
  for (const auto& record : *records_) {
    if (user_hash_day(record.time)) {
      saw_hash |= record.user_hash != 0;
    } else {
      ASSERT_EQ(record.user_hash, 0u)
          << util::format_datetime(record.time);
    }
  }
  EXPECT_TRUE(saw_hash);
}

TEST_F(ScenarioRunTest, GlobalProportionsMatchTable3) {
  std::uint64_t allowed = 0, censored = 0, errors = 0, proxied = 0;
  for (const auto& record : *records_) {
    switch (proxy::classify(record)) {
      case proxy::TrafficClass::kAllowed: ++allowed; break;
      case proxy::TrafficClass::kCensored: ++censored; break;
      case proxy::TrafficClass::kError: ++errors; break;
      case proxy::TrafficClass::kProxied: ++proxied; break;
    }
  }
  const double n = static_cast<double>(records_->size());
  EXPECT_NEAR(allowed / n, 0.9325, 0.012);   // paper: 93.25%
  EXPECT_NEAR(censored / n, 0.0098, 0.004);  // paper: 0.98%
  EXPECT_NEAR(errors / n, 0.0530, 0.008);    // paper: ~5.30%
  EXPECT_LT(proxied / n, 0.012);             // paper: 0.47%
}

TEST_F(ScenarioRunTest, EveryObservationDayHasTraffic) {
  std::map<std::string, std::uint64_t> per_day;
  for (const auto& record : *records_)
    ++per_day[util::format_date(record.time)];
  EXPECT_EQ(per_day.size(), 9u);
  for (const auto& [day, count] : per_day) EXPECT_GT(count, 1000u) << day;
}

TEST_F(ScenarioRunTest, MetacafePinnedToSg48) {
  std::uint64_t on_sg48 = 0, total = 0;
  for (const auto& record : *records_) {
    if (sg42_only_day(record.time)) continue;  // July is SG-42-only by leak
    if (!util::host_matches_domain(record.url.host, "metacafe.com")) continue;
    ++total;
    if (record.proxy_index == 6) ++on_sg48;
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(on_sg48 / double(total), 0.90);
}

TEST_F(ScenarioRunTest, AugustLoadSpreadsAcrossProxies) {
  std::array<std::uint64_t, 7> counts{};
  std::uint64_t total = 0;
  for (const auto& record : *records_) {
    if (sg42_only_day(record.time)) continue;
    ++counts[record.proxy_index];
    ++total;
  }
  for (std::size_t p = 0; p < counts.size(); ++p) {
    EXPECT_NEAR(counts[p] / double(total), 1.0 / 7.0, 0.04)
        << policy::proxy_name(p);
  }
}

TEST(ScenarioBoosted, CensoredTrafficIncludesEveryMechanism) {
  // The rare mechanisms (Israeli subnets, Tor, redirects) need boosting to
  // show up reliably at test scale — see ScenarioConfig::share_boosts.
  auto config = small_config(150'000);
  config.share_boosts = {{"israel", 60.0},
                         {"tor", 80.0},
                         {"redirect-hosts", 40.0}};
  SyriaScenario scenario{config};
  std::vector<proxy::LogRecord> records;
  scenario.run(
      [&](const proxy::LogRecord& record) { records.push_back(record); });

  bool keyword = false, domain = false, subnet = false, redirect = false,
       tor = false;
  for (const auto& record : records) {
    if (record.exception == proxy::ExceptionId::kPolicyRedirect)
      redirect = true;
    if (record.exception != proxy::ExceptionId::kPolicyDenied) continue;
    const auto text = record.url.filter_text();
    if (util::icontains(text, "proxy")) keyword = true;
    if (util::host_matches_domain(record.url.host, "metacafe.com"))
      domain = true;
    if (record.dest_ip &&
        net::Ipv4Subnet::parse("84.229.0.0/16")->contains(*record.dest_ip))
      subnet = true;
    if (record.url.port == 9001) tor = true;
  }
  EXPECT_TRUE(keyword);
  EXPECT_TRUE(domain);
  EXPECT_TRUE(subnet);
  EXPECT_TRUE(redirect);
  EXPECT_TRUE(tor);
}

TEST(Scenario, LeakFilterCanBeDisabled) {
  auto config = small_config(30'000);
  config.apply_leak_filter = false;
  SyriaScenario scenario{config};
  bool july_non_sg42 = false;
  bool august_hash = false;
  scenario.run([&](const proxy::LogRecord& record) {
    if (sg42_only_day(record.time) && record.proxy_index != 0)
      july_non_sg42 = true;
    if (!user_hash_day(record.time) && record.user_hash != 0)
      august_hash = true;
  });
  EXPECT_TRUE(july_non_sg42);
  EXPECT_TRUE(august_hash);
}

// The generator's output, byte for byte. Each golden line pins the record
// count and CRC32 of the csv `syrwatchctl generate` writes (header, then
// one append_csv line per record) at a seed and fault profile, so any
// change that moves one byte of the log -- a policy decision, an RNG
// draw, a cache admission -- fails here.
TEST(GenerateGolden, CsvBytesArePinned) {
  std::ifstream golden{SYRWATCH_GOLDEN_DIR "/generate_crc.txt"};
  ASSERT_TRUE(golden) << "missing golden generate_crc.txt";
  std::size_t cases = 0;
  for (std::string line; std::getline(golden, line);) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields{line};
    std::uint64_t seed = 0;
    std::string profile;
    std::uint64_t records = 0;
    std::string crc;
    ASSERT_TRUE(fields >> seed >> profile >> records >> crc) << line;

    ScenarioConfig config;
    config.total_requests = 20'000;
    config.seed = seed;
    config.fault_profile = profile;
    config.threads = 2;
    SyriaScenario scenario{config};
    util::Crc32 digest;
    digest.update(proxy::log_csv_header());
    digest.update("\n");
    std::uint64_t emitted = 0;
    std::string buffer;
    scenario.run([&](const proxy::LogRecord& record) {
      buffer.clear();
      proxy::append_csv(proxy::view_of(record), buffer);
      digest.update(buffer);
      ++emitted;
    });
    EXPECT_EQ(emitted, records) << line;
    EXPECT_EQ(util::to_hex32(digest.value()), crc) << line;
    ++cases;
  }
  EXPECT_EQ(cases, 3u);
}

}  // namespace
