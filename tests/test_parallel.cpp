// Parallel pipeline: parallel_for semantics, thread-count invariance of
// the generated log, of every commit's farm state and of the rendered
// report (the DESIGN.md §4.5 contract), and regression tests for the
// hot-path fixes that rode along with the parallelization (share-boost
// resolution, affinity routing).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "durable/checkpoint.h"
#include "durable/manifest.h"
#include "proxy/log_io.h"
#include "util/cancel.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::workload;

// --- parallel_for ----------------------------------------------------------

TEST(ParallelFor, ResolveThreads) {
  EXPECT_GE(util::resolve_threads(0), 1u);
  EXPECT_EQ(util::resolve_threads(1), 1u);
  EXPECT_EQ(util::resolve_threads(12), 12u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> visits(1000);
    util::parallel_for(visits.size(), threads,
                       [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& count : visits) ASSERT_EQ(count.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingleItem) {
  int calls = 0;
  util::parallel_for(0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallel_for(1, 8, [&](std::size_t i) { calls += i == 0 ? 1 : 100; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_THROW(
        util::parallel_for(100, threads,
                           [&](std::size_t i) {
                             if (i == 17) throw std::runtime_error("boom");
                           }),
        std::runtime_error);
  }
}

TEST(ParallelFor, ReturnsTrueWithoutCancellation) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_TRUE(util::parallel_for(100, threads, [](std::size_t) {}));
    util::CancelToken idle;
    EXPECT_TRUE(
        util::parallel_for(100, threads, [](std::size_t) {}, &idle));
  }
}

TEST(ParallelFor, PreCancelledTokenRunsNothing) {
  util::CancelToken token;
  token.request_cancel();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> calls{0};
    EXPECT_FALSE(util::parallel_for(
        1000, threads, [&](std::size_t) { calls.fetch_add(1); }, &token));
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ParallelFor, MidRunCancellationStopsEarly) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::CancelToken token;
    std::atomic<int> calls{0};
    const bool finished = util::parallel_for(
        100'000, threads,
        [&](std::size_t) {
          if (calls.fetch_add(1) == 50) token.request_cancel();
        },
        &token);
    EXPECT_FALSE(finished) << threads << " threads";
    // Every started item ran to completion; far fewer than all started.
    EXPECT_GE(calls.load(), 51);
    EXPECT_LT(calls.load(), 100'000);
  }
}

// --- thread-count invariance ----------------------------------------------

ScenarioConfig small_config(std::uint64_t total, std::size_t threads) {
  ScenarioConfig config;
  config.total_requests = total;
  config.user_population = 4'000;
  config.catalog_tail = 3'000;
  config.torrent_contents = 500;
  config.threads = threads;
  return config;
}

std::vector<std::string> run_to_csv(const ScenarioConfig& config) {
  SyriaScenario scenario{config};
  std::vector<std::string> lines;
  scenario.run([&](const proxy::LogRecord& record) {
    lines.push_back(proxy::to_csv(record));
  });
  return lines;
}

// Thread counts the invariance tests compare with threads 1: at 2 the
// next batch's producer gets one thread of its own, and 7 matches the
// proxy count.
constexpr std::size_t kThreadCounts[] = {2, 3, 7, 8};

TEST(ThreadInvariance, LogStreamIsBitIdenticalAcrossThreadCounts) {
  const auto reference = run_to_csv(small_config(60'000, 1));
  ASSERT_GT(reference.size(), 20'000u);
  for (const std::size_t threads : kThreadCounts) {
    const auto lines = run_to_csv(small_config(60'000, threads));
    ASSERT_EQ(lines.size(), reference.size()) << threads << " threads";
    EXPECT_EQ(lines, reference) << threads << " threads";
  }
}

// The fault layer must not weaken the §4.5 contract: outage failover and
// brownout error draws are pure functions of (proxy, time, user), so the
// emitted log stays bit-identical for any worker count even while a proxy
// is down or degraded.
TEST(ThreadInvariance, FaultedLogIsBitIdenticalAcrossThreadCounts) {
  for (const char* profile : {"sg47-outage", "rolling-brownout"}) {
    auto reference_config = small_config(60'000, 1);
    reference_config.fault_profile = profile;
    const auto reference = run_to_csv(reference_config);
    ASSERT_GT(reference.size(), 20'000u) << profile;
    for (const std::size_t threads : kThreadCounts) {
      auto config = small_config(60'000, threads);
      config.fault_profile = profile;
      const auto lines = run_to_csv(config);
      ASSERT_EQ(lines.size(), reference.size())
          << profile << " @ " << threads << " threads";
      EXPECT_EQ(lines, reference) << profile << " @ " << threads
                                  << " threads";
    }
  }
}

/// The farm state of every commit of a checkpointed run at
/// commit_interval 1, read back from disk as each commit lands.
std::vector<std::string> committed_states(const ScenarioConfig& config,
                                          const std::string& dir) {
  std::filesystem::remove_all(dir);
  SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir;
  std::vector<std::string> states;
  options.after_commit = [&](std::size_t) {
    const auto manifest = durable::RunManifest::load(
        dir + "/" + std::string(durable::RunManifest::kFileName));
    for (const auto& artifact : manifest.artifacts) {
      if (artifact.role != "state") continue;
      std::ifstream in{dir + "/" + artifact.path, std::ios::binary};
      states.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
  };
  EXPECT_TRUE(durable::run_checkpointed(scenario, options,
                                        [](const proxy::LogRecord&) {})
                  .completed);
  std::filesystem::remove_all(dir);
  return states;
}

// A commit runs while the next batch is being produced; it must still see
// the farm exactly as its own batch left it — caches, RNGs and failover
// tallies — at any thread count.
TEST(ThreadInvariance, CommittedFarmStatesAreBitIdenticalAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir() +
                          "syrwatch_parallel_commits_" +
                          std::to_string(::getpid());
  for (const char* profile : {"none", "rolling-brownout", "sg47-outage"}) {
    auto reference_config = small_config(20'000, 1);
    reference_config.fault_profile = profile;
    const auto reference = committed_states(reference_config, dir);
    ASSERT_EQ(reference.size(), SyriaScenario{reference_config}.batch_count())
        << profile;
    for (const std::size_t threads : kThreadCounts) {
      auto config = reference_config;
      config.threads = threads;
      const auto states = committed_states(config, dir);
      ASSERT_EQ(states.size(), reference.size())
          << profile << " @ " << threads << " threads";
      for (std::size_t b = 0; b < states.size(); ++b)
        EXPECT_EQ(states[b], reference[b])
            << profile << " @ " << threads << " threads, commit " << b;
    }
  }
}

TEST(ThreadInvariance, FullReportIsBitIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8}}) {
    core::Study study{small_config(50'000, threads)};
    study.run();
    const auto report = core::render_full_report(study);
    ASSERT_FALSE(report.empty());
    if (reference.empty()) {
      reference = report;
    } else {
      EXPECT_EQ(report, reference);
    }
  }
}

TEST(ThreadInvariance, DerivedDatasetsMatchAcrossThreadCounts) {
  std::vector<std::uint64_t> sizes;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{6}, std::size_t{7}}) {
    core::Study study{small_config(40'000, threads)};
    study.run();
    const auto& datasets = study.datasets();
    if (sizes.empty()) {
      sizes = {datasets.full.rows(), datasets.sample.rows(), datasets.user.rows(),
               datasets.denied.rows()};
    } else {
      EXPECT_EQ(datasets.full.rows(), sizes[0]);
      EXPECT_EQ(datasets.sample.rows(), sizes[1]);
      EXPECT_EQ(datasets.user.rows(), sizes[2]);
      EXPECT_EQ(datasets.denied.rows(), sizes[3]);
    }
  }
}

// --- share-boost regression (boosts now resolved once, outside hot loop) --

TEST(ShareBoosts, BoostScalesComponentVolume) {
  auto count_im = [](const ScenarioConfig& config) {
    SyriaScenario scenario{config};
    std::uint64_t im = 0, total = 0;
    scenario.run([&](const proxy::LogRecord& record) {
      ++total;
      for (const char* host :
           {"skype.com", "messenger.live.com", "ceipmsn.com"}) {
        if (util::host_matches_domain(record.url.host, host)) {
          ++im;
          break;
        }
      }
    });
    EXPECT_GT(total, 0u);
    return im;
  };

  auto base_config = small_config(150'000, 2);
  const auto base = count_im(base_config);
  ASSERT_GT(base, 50u);

  auto boosted_config = base_config;
  boosted_config.share_boosts = {{"im", 8.0}, {"no-such-component", 3.0}};
  const auto boosted = count_im(boosted_config);
  EXPECT_NEAR(static_cast<double>(boosted) / static_cast<double>(base), 8.0,
              2.0);
}

// --- affinity routing stays calibrated under stateless draws --------------

TEST(AffinityRouting, MetacafeShareSurvivesParallelRouting) {
  auto config = small_config(120'000, 4);
  SyriaScenario scenario{config};
  std::uint64_t on_sg48 = 0, total = 0;
  scenario.run([&](const proxy::LogRecord& record) {
    if (sg42_only_day(record.time)) return;
    if (!util::host_matches_domain(record.url.host, "metacafe.com")) return;
    ++total;
    if (record.proxy_index == 6) ++on_sg48;
  });
  ASSERT_GT(total, 50u);
  EXPECT_NEAR(static_cast<double>(on_sg48) / static_cast<double>(total),
              0.955, 0.04);
}

}  // namespace
