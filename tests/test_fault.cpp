// Fault-injection layer: schedule semantics, named profiles, health-aware
// failover routing, the log damage model with its lenient reader, the
// coverage analyzer, and the degraded-data report annotations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/coverage.h"
#include "core/report.h"
#include "core/study.h"
#include "fault/corruptor.h"
#include "fault/profiles.h"
#include "fault/schedule.h"
#include "proxy/log_io.h"
#include "util/rng.h"
#include "util/simtime.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using syrwatch::fault::FaultSchedule;

constexpr std::size_t kSg47 = 5;  // s-ip 82.137.200.47

// --- FaultSchedule semantics ----------------------------------------------

TEST(FaultSchedule, EmptyScheduleIsAlwaysHealthy) {
  const FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_FALSE(schedule.is_down(0, 0));
  EXPECT_DOUBLE_EQ(schedule.error_multiplier(3, 12345), 1.0);
  EXPECT_FALSE(schedule.affects(6));
}

TEST(FaultSchedule, OutageWindowIsHalfOpen) {
  FaultSchedule schedule;
  schedule.add_outage(2, 100, 200);
  EXPECT_FALSE(schedule.is_down(2, 99));
  EXPECT_TRUE(schedule.is_down(2, 100));
  EXPECT_TRUE(schedule.is_down(2, 199));
  EXPECT_FALSE(schedule.is_down(2, 200));
  EXPECT_FALSE(schedule.is_down(1, 150));  // other proxies untouched
  EXPECT_TRUE(schedule.affects(2));
  EXPECT_FALSE(schedule.affects(1));
}

TEST(FaultSchedule, OverlappingBrownoutsMultiply) {
  FaultSchedule schedule;
  schedule.add_brownout(0, 0, 100, 2.0);
  schedule.add_brownout(0, 50, 150, 3.0);
  EXPECT_DOUBLE_EQ(schedule.error_multiplier(0, 25), 2.0);
  EXPECT_DOUBLE_EQ(schedule.error_multiplier(0, 75), 6.0);
  EXPECT_DOUBLE_EQ(schedule.error_multiplier(0, 125), 3.0);
  EXPECT_DOUBLE_EQ(schedule.error_multiplier(0, 175), 1.0);
  // Brownouts degrade but never take the proxy down.
  EXPECT_FALSE(schedule.is_down(0, 75));
}

TEST(FaultSchedule, FlappingIsDeterministicWithMixedDuty) {
  FaultSchedule a;
  a.add_flapping(4, 0, 86'400, 600, 0.5, 42);
  FaultSchedule b;
  b.add_flapping(4, 0, 86'400, 600, 0.5, 42);
  std::uint64_t down = 0, total = 0;
  for (std::int64_t t = 0; t < 86'400; t += 300) {
    ASSERT_EQ(a.is_down(4, t), b.is_down(4, t)) << t;
    ++total;
    if (a.is_down(4, t)) ++down;
  }
  // Duty cycle tracks up_fraction loosely; mostly we need both phases.
  EXPECT_GT(down, total / 5);
  EXPECT_LT(down, total * 4 / 5);
  EXPECT_FALSE(a.is_down(4, -1));       // outside the window: up
  EXPECT_FALSE(a.is_down(4, 86'400));   // end is exclusive
}

TEST(FaultSchedule, RejectsDegenerateWindows) {
  FaultSchedule schedule;
  EXPECT_THROW(schedule.add_outage(0, 100, 100), std::invalid_argument);
  EXPECT_THROW(schedule.add_outage(0, 200, 100), std::invalid_argument);
  EXPECT_THROW(schedule.add_brownout(0, 0, 10, 0.0), std::invalid_argument);
  EXPECT_THROW(schedule.add_brownout(0, 0, 10, -2.0), std::invalid_argument);
}

// --- named profiles --------------------------------------------------------

TEST(FaultProfiles, NoneIsEmptyAndUnknownThrows) {
  EXPECT_TRUE(fault::make_profile("none", 7).empty());
  EXPECT_THROW(fault::make_profile("sg47-meltdown", 7),
               std::invalid_argument);
  const auto& names = fault::profile_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "none"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sg47-outage"),
            names.end());
  for (const auto& name : names) {
    EXPECT_NO_THROW(fault::make_profile(name, 7)) << name;
  }
}

TEST(FaultProfiles, Sg47OutageTakesProxyFiveDown) {
  const auto schedule = fault::make_profile("sg47-outage", 2011);
  EXPECT_TRUE(schedule.affects(kSg47));
  const auto noon = util::to_unix_seconds({2011, 8, 3, 12, 0, 0});
  EXPECT_TRUE(schedule.is_down(kSg47, noon));
  for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
    if (p != kSg47) {
      EXPECT_FALSE(schedule.is_down(p, noon)) << p;
    }
  }
  // Brown-out shoulders degrade without downtime.
  const auto morning = util::to_unix_seconds({2011, 8, 2, 8, 0, 0});
  EXPECT_FALSE(schedule.is_down(kSg47, morning));
  EXPECT_GT(schedule.error_multiplier(kSg47, morning), 1.0);
}

TEST(FaultProfiles, SameSeedYieldsIdenticalSchedule) {
  for (const auto& name : fault::profile_names()) {
    const auto a = fault::make_profile(name, 99);
    const auto b = fault::make_profile(name, 99);
    EXPECT_EQ(a.describe(), b.describe()) << name;
    EXPECT_EQ(a.windows().size(), b.windows().size()) << name;
  }
}

// --- health-aware failover routing ----------------------------------------

workload::ScenarioConfig tiny_config(const char* profile = "none") {
  workload::ScenarioConfig config;
  config.total_requests = 40'000;
  config.user_population = 3'000;
  config.catalog_tail = 2'000;
  config.torrent_contents = 300;
  config.fault_profile = profile;
  return config;
}

proxy::Request plain_request(std::uint64_t user, std::int64_t time) {
  proxy::Request request;
  request.time = time;
  request.user_id = user;
  request.url = *net::Url::parse("http://example.com/index.html");
  return request;
}

TEST(Failover, ReroutesOnlyTheDownProxyAndSticksToOneSurvivor) {
  workload::SyriaScenario scenario{tiny_config()};
  auto& farm = scenario.farm();
  const auto t0 = util::to_unix_seconds({2011, 8, 3, 10, 0, 0});

  // Find a user homed on SG-44 and one homed elsewhere.
  std::uint64_t on_sg44 = 0, elsewhere = 0;
  for (std::uint64_t user = 1; user < 200; ++user) {
    const auto home = farm.route(plain_request(user, t0));
    if (home == 2 && on_sg44 == 0) on_sg44 = user;
    if (home != 2 && elsewhere == 0) elsewhere = user;
    if (on_sg44 != 0 && elsewhere != 0) break;
  }
  ASSERT_NE(on_sg44, 0u);
  ASSERT_NE(elsewhere, 0u);
  const auto other_home = farm.route(plain_request(elsewhere, t0));
  const auto failovers_before = farm.failover_total();

  FaultSchedule outage;
  outage.add_outage(2, t0 - 3600, t0 + 3600);
  farm.set_fault_schedule(&outage);

  // The displaced user lands on one healthy survivor, time-free within
  // the outage; everyone else keeps their home.
  const auto survivor = farm.route(plain_request(on_sg44, t0));
  EXPECT_NE(survivor, 2u);
  EXPECT_EQ(farm.route(plain_request(on_sg44, t0 + 1800)), survivor);
  EXPECT_EQ(farm.route(plain_request(elsewhere, t0)), other_home);
  // Outside the window the home proxy is back.
  EXPECT_EQ(farm.route(plain_request(on_sg44, t0 + 7200)), 2u);
  // route() reports a diversion but never counts it: the pipeline adds a
  // batch's diversions only once the batch is committed to processing.
  bool diverted = false;
  EXPECT_EQ(farm.route(plain_request(on_sg44, t0), &diverted), survivor);
  EXPECT_TRUE(diverted);
  EXPECT_EQ(farm.failover_total(), failovers_before);
  // process() routes and counts.
  EXPECT_EQ(farm.process(plain_request(on_sg44, t0)).proxy_index, survivor);
  EXPECT_GT(farm.failover_total(), failovers_before);
  EXPECT_GT(farm.failovers_to(survivor), 0u);
}

TEST(Failover, WholeFarmDownFallsBackToHome) {
  workload::SyriaScenario scenario{tiny_config()};
  auto& farm = scenario.farm();
  const auto t0 = util::to_unix_seconds({2011, 8, 3, 10, 0, 0});
  const auto home = farm.route(plain_request(17, t0));

  FaultSchedule blackout;
  for (std::size_t p = 0; p < policy::kProxyCount; ++p)
    blackout.add_outage(p, t0 - 3600, t0 + 3600);
  farm.set_fault_schedule(&blackout);
  EXPECT_EQ(farm.route(plain_request(17, t0)), home);
}

TEST(Failover, OutageScenarioLogsNothingOnSg47DuringTheHole) {
  const auto outage_start = util::to_unix_seconds({2011, 8, 2, 12, 0, 0});
  const auto outage_end = util::to_unix_seconds({2011, 8, 4, 0, 0, 0});
  const auto first_fault = util::to_unix_seconds({2011, 8, 2, 6, 0, 0});

  std::vector<std::string> healthy_prefix;
  {
    workload::SyriaScenario baseline{tiny_config("none")};
    baseline.run([&](const proxy::LogRecord& record) {
      if (record.time < first_fault)
        healthy_prefix.push_back(proxy::to_csv(record));
    });
    EXPECT_EQ(baseline.farm().failover_total(), 0u);
  }

  workload::SyriaScenario scenario{tiny_config("sg47-outage")};
  std::uint64_t sg47_in_window = 0, sg47_outside = 0, in_window = 0;
  std::vector<std::string> faulted_prefix;
  scenario.run([&](const proxy::LogRecord& record) {
    if (record.time < first_fault)
      faulted_prefix.push_back(proxy::to_csv(record));
    const bool inside =
        record.time >= outage_start && record.time < outage_end;
    if (inside) ++in_window;
    if (record.proxy_index != kSg47) return;
    if (inside)
      ++sg47_in_window;
    else
      ++sg47_outside;
  });
  EXPECT_EQ(sg47_in_window, 0u);   // the hole is total...
  EXPECT_GT(sg47_outside, 1000u);  // ...but only the hole
  EXPECT_GT(in_window, 4000u);     // survivors absorbed the traffic
  EXPECT_GT(scenario.farm().failover_total(), 0u);
  // Before the first fault window the log is identical to the healthy run:
  // the fault layer cannot perturb healthy-period traffic.
  EXPECT_EQ(faulted_prefix, healthy_prefix);
}

// --- log damage + lenient recovery ----------------------------------------

std::string generated_log_text(std::uint64_t requests) {
  auto config = tiny_config("none");
  config.total_requests = requests;
  workload::SyriaScenario scenario{config};
  std::string text;
  scenario.run([&](const proxy::LogRecord& record) {
    text += proxy::to_csv(record);
    text += '\n';
  });
  return text;
}

TEST(LogCorruptor, DeterministicAndAccounted) {
  const std::string text = generated_log_text(2'000);
  const fault::CorruptionConfig config{.seed = 5,
                                       .truncate_prob = 0.05,
                                       .garble_prob = 0.05,
                                       .drop_prob = 0.05,
                                       .drop_day_prefixes = {}};
  fault::LogCorruptor a{config};
  fault::LogCorruptor b{config};
  const auto damaged_a = a.corrupt_log(text);
  const auto damaged_b = b.corrupt_log(text);
  EXPECT_EQ(damaged_a, damaged_b);
  EXPECT_LT(damaged_a.size(), text.size());
  const auto& stats = a.stats();
  EXPECT_GT(stats.truncated, 0u);
  EXPECT_GT(stats.garbled, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.lines, static_cast<std::uint64_t>(
                             std::count(text.begin(), text.end(), '\n')));
  EXPECT_EQ(stats.intact(),
            stats.lines - stats.truncated - stats.garbled - stats.dropped);
}

TEST(LogCorruptor, DropsWholeDayFiles) {
  const std::string text = generated_log_text(3'000);
  fault::LogCorruptor corruptor{{.seed = 1,
                                 .truncate_prob = 0.0,
                                 .garble_prob = 0.0,
                                 .drop_prob = 0.0,
                                 .drop_day_prefixes = {"2011-08-01"}}};
  const auto damaged = corruptor.corrupt_log(text);
  EXPECT_GT(corruptor.stats().dropped_days, 0u);
  EXPECT_NE(text.find("2011-08-01"), std::string::npos);
  EXPECT_EQ(damaged.find("2011-08-01"), std::string::npos);
}

TEST(LenientRead, OnePercentCorruptionRecoversNearlyEverything) {
  const std::string text = generated_log_text(40'000);
  fault::LogCorruptor corruptor{{.seed = 9,
                                 .truncate_prob = 0.004,
                                 .garble_prob = 0.003,
                                 .drop_prob = 0.003,
                                 .drop_day_prefixes = {}}};
  // Keep the header pristine; damage only the data lines (the corruptor
  // has no notion of headers).
  std::string damaged = proxy::log_csv_header();
  damaged += '\n';
  damaged += corruptor.corrupt_log(text);

  std::istringstream in{damaged};
  const auto log = proxy::read_log_lenient(in);
  const auto& stats = log.stats;
  EXPECT_TRUE(stats.header_present);
  EXPECT_TRUE(stats.consistent());
  // Every line the corruptor left intact must be recovered (garbled lines
  // may also parse when the flipped byte lands in free text, so recovered
  // can exceed intact()).
  EXPECT_GE(stats.recovered, corruptor.stats().intact());
  // The acceptance bar: >= 99% of intact records recovered (we actually
  // recover 100% of them; the inequality documents the contract).
  EXPECT_GE(static_cast<double>(stats.recovered),
            0.99 * static_cast<double>(corruptor.stats().intact()));
  // Dropped lines are invisible to the reader; everything else it saw is
  // either recovered, empty (truncated to nothing), or attributed to a
  // reason.
  EXPECT_EQ(stats.data_lines + stats.empty_lines,
            corruptor.stats().lines - corruptor.stats().dropped);
  EXPECT_GT(stats.skipped_total(), 0u);
  EXPECT_GT(stats.first_error_line[static_cast<std::size_t>(
                proxy::ParseError::kColumnCount)],
            0u);
}

// --- mutation fuzz: parsing never crashes, intact lines always survive ----

TEST(MutationFuzz, RoundTripSurvivesRandomDamage) {
  const std::string text = generated_log_text(1'500);
  std::vector<std::string> lines;
  std::istringstream split{text};
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 500u);

  util::Rng rng{0xF022};
  const auto mutate = [&](std::string line) {
    switch (rng.uniform(4)) {
      case 0:  // truncation (torn write)
        line.resize(rng.uniform(line.size() + 1));
        break;
      case 1: {  // byte flip
        if (!line.empty())
          line[rng.uniform(line.size())] =
              static_cast<char>(rng.uniform(256));
        break;
      }
      case 2: {  // field splice: graft the tail of another line mid-field
        const auto& donor = lines[rng.uniform(lines.size())];
        line = line.substr(0, rng.uniform(line.size() + 1)) +
               donor.substr(rng.uniform(donor.size() + 1));
        break;
      }
      default:  // field deletion: drop one comma-separated column
        if (const auto comma = line.find(','); comma != std::string::npos) {
          const auto next = line.find(',', comma + 1);
          line.erase(comma, next == std::string::npos
                                ? std::string::npos
                                : next - comma);
        }
        break;
    }
    return line;
  };

  std::string mixed;
  std::uint64_t intact = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (rng.bernoulli(0.3)) {
      const auto damaged = mutate(lines[i]);
      // from_csv must never crash or throw on arbitrary bytes.
      EXPECT_NO_THROW(proxy::from_csv(damaged));
      mixed += damaged;
    } else {
      ++intact;
      mixed += lines[i];
    }
    mixed += '\n';
  }

  std::istringstream in{mixed};
  proxy::LenientLog log;
  EXPECT_NO_THROW(log = proxy::read_log_lenient(in));
  EXPECT_TRUE(log.stats.consistent());
  EXPECT_GE(log.stats.recovered, intact);  // every intact line survives
}

// --- coverage analyzer -----------------------------------------------------

TEST(Coverage, FindsTheSilentProxyWhileTheFarmIsActive) {
  analysis::Dataset dataset;
  proxy::LogRecord record;
  record.url = *net::Url::parse("http://example.com/");
  record.method = "GET";
  record.user_agent = "test";
  record.categories = "none";
  const auto origin = util::to_unix_seconds({2011, 8, 3, 0, 0, 0});
  for (int hour = 0; hour < 3; ++hour) {
    for (int i = 0; i < 6; ++i) {
      record.time = origin + hour * 3600 + i * 60;
      record.proxy_index = 0;
      dataset.add(record);
      if (hour != 1) {  // proxy 1 is silent through hour 1
        record.proxy_index = 1;
        dataset.add(record);
      }
    }
  }

  const auto report = analysis::request_coverage(dataset,
                                {.bin = {3600}, .min_farm_bin_requests = 5});
  EXPECT_TRUE(report.degraded());
  // Proxies 2-6 never log at all, so each carries one full-window gap;
  // proxy 1's is the hour-1 hole we planted.
  ASSERT_EQ(report.gaps.size(), 6u);
  const auto& gap = report.gaps.front();
  EXPECT_EQ(gap.proxy_index, 1);
  EXPECT_EQ(gap.start, origin + 3600);
  EXPECT_EQ(gap.end, origin + 7200);
  EXPECT_EQ(gap.farm_requests, 6u);
  for (std::size_t i = 1; i < report.gaps.size(); ++i) {
    EXPECT_EQ(report.gaps[i].proxy_index, i + 1);
    EXPECT_EQ(report.gaps[i].start, origin);
    EXPECT_EQ(report.gaps[i].end, origin + 3 * 3600);
  }
  EXPECT_EQ(report.active_bins, 3u);
  EXPECT_NEAR(report.coverage_share(1), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.coverage_share(0), 1.0);
  ASSERT_EQ(report.days.size(), 1u);
  EXPECT_EQ(report.days[0].requests[0], 18u);
  EXPECT_EQ(report.days[0].requests[1], 12u);
}

TEST(Coverage, QuietFarmProducesNoPhantomGaps) {
  analysis::Dataset dataset;
  proxy::LogRecord record;
  record.url = *net::Url::parse("http://example.com/");
  const auto origin = util::to_unix_seconds({2011, 8, 3, 0, 0, 0});
  for (int hour = 0; hour < 4; ++hour) {
    record.time = origin + hour * 3600;
    record.proxy_index = 0;
    dataset.add(record);  // one request per hour: below the floor
  }
  const auto report = analysis::request_coverage(dataset,
                                {.bin = {3600}, .min_farm_bin_requests = 25});
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.active_bins, 0u);
  EXPECT_DOUBLE_EQ(report.coverage_share(3), 1.0);
}

TEST(Coverage, NonPositiveBinIsRefused) {
  // A zero width used to divide by zero (SIGFPE), a negative one to size
  // the bin vector from a negative count.
  analysis::Dataset dataset;
  proxy::LogRecord record;
  record.url = *net::Url::parse("http://example.com/");
  record.time = util::to_unix_seconds({2011, 8, 3, 0, 0, 0});
  dataset.add(record);
  const analysis::Dataset empty;
  for (const std::int64_t seconds : {std::int64_t{0}, std::int64_t{-3600}}) {
    EXPECT_THROW(analysis::request_coverage(dataset, {.bin = {seconds}}),
                 std::invalid_argument);
    EXPECT_THROW(analysis::request_coverage(empty, {.bin = {seconds}}),
                 std::invalid_argument);
  }
}

// --- report annotations ----------------------------------------------------

TEST(Report, DegradedAnnotationsAppearOnlyUnderFaults) {
  {
    core::Study study{tiny_config("none")};
    study.run();
    const auto overview = core::render_overview(study);
    EXPECT_EQ(overview.find("DEGRADED"), std::string::npos);
  }
  {
    core::Study study{tiny_config("sg47-outage")};
    study.run();
    const auto overview = core::render_overview(study);
    EXPECT_NE(overview.find("DEGRADED"), std::string::npos);
    EXPECT_NE(overview.find("ailover"), std::string::npos);
  }
}

}  // namespace
