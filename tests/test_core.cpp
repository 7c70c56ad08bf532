// Core facade: study lifecycle and report rendering.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "analysis/export.h"
#include "analysis/scan.h"
#include "colfmt/container.h"
#include "core/report.h"
#include "core/study.h"
#include "proxy/log_io.h"

namespace {

using namespace syrwatch;

workload::ScenarioConfig tiny_config() {
  workload::ScenarioConfig config;
  config.total_requests = 60'000;
  config.user_population = 3'000;
  config.catalog_tail = 2'000;
  config.torrent_contents = 300;
  return config;
}

TEST(Study, DatasetsThrowBeforeRun) {
  core::Study study{tiny_config()};
  EXPECT_FALSE(study.has_run());
  EXPECT_THROW(study.datasets(), std::logic_error);
}

TEST(Study, RunBuildsAllDatasets) {
  core::Study study{tiny_config()};
  study.run();
  EXPECT_TRUE(study.has_run());
  const auto& datasets = study.datasets();
  EXPECT_GT(datasets.full.rows(), 20'000u);
  EXPECT_GT(datasets.sample.rows(), 0u);
  EXPECT_GT(datasets.user.rows(), 0u);
  EXPECT_GT(datasets.denied.rows(), 0u);
}

TEST(Study, RerunIsDeterministic) {
  core::Study study{tiny_config()};
  study.run();
  const auto size_first = study.datasets().full.rows();
  study.run();
  EXPECT_EQ(study.datasets().full.rows(), size_first);
}

TEST(Study, BuildDatasetsRequiresSimulate) {
  core::Study study{tiny_config()};
  EXPECT_THROW(study.build_datasets(), std::logic_error);
  study.simulate();
  EXPECT_FALSE(study.has_run());  // derivation has not happened yet
  study.build_datasets();
  EXPECT_TRUE(study.has_run());
  // The pending log was consumed; deriving again needs a new simulate().
  EXPECT_THROW(study.build_datasets(), std::logic_error);
}

TEST(Study, PhasedRunMatchesWrapperAndRecordsMetrics) {
  core::Study phased{tiny_config()};
  phased.simulate();
  const auto result = phased.build_datasets();
  EXPECT_EQ(&result.datasets, &phased.datasets());
  EXPECT_EQ(result.metrics.log_records, result.datasets.full.rows());

  ASSERT_EQ(result.metrics.phases.size(), 2u);
  EXPECT_EQ(result.metrics.phases[0].name, "simulate");
  EXPECT_EQ(result.metrics.phases[1].name, "build_datasets");
  EXPECT_GT(result.metrics.phases[0].seconds, 0.0);
  EXPECT_GE(result.metrics.total_seconds(),
            result.metrics.phases[0].seconds);
  EXPECT_EQ(result.metrics.phases[0].items, result.metrics.log_records);

  core::Study wrapped{tiny_config()};
  const auto wrapped_result = wrapped.run();
  EXPECT_EQ(wrapped_result.datasets.full.rows(), result.datasets.full.rows());
  EXPECT_EQ(wrapped.metrics().phases.size(), 2u);
}

TEST(Report, OverviewContainsHeadlineSections) {
  core::Study study{tiny_config()};
  study.run();
  const auto report = core::render_overview(study);
  for (const char* needle :
       {"Datasets (Table 1)", "Traffic classes (Table 3",
        "Top-10 allowed domains", "Top-10 censored domains", "google.com",
        "policy_denied"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, FullReportCoversEveryAnalysis) {
  core::Study study{tiny_config()};
  study.run();
  const auto report = core::render_full_report(study);
  for (const char* needle :
       {"Destination ports (Fig. 1)", "Censored keywords (Table 10)",
        "Top suspected domains (Table 8", "Censorship ratio by country",
        "Social networks (Table 13)", "Blocked Facebook pages (Table 14)",
        "Tor traffic (Sec. 7.1)", "BitTorrent (Sec. 7.3)",
        "Google cache (Sec. 7.4)", "HTTPS traffic (Sec. 4)",
        "Dsample accuracy audit (Sec. 3.3)"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
  // The Dsample CI audit mostly holds (coverage is statistical: at 95%
  // confidence an occasional miss is expected, not a bug).
  std::size_t covered = 0, pos = 0;
  while ((pos = report.find("| yes", pos)) != std::string::npos) {
    ++covered;
    ++pos;
  }
  EXPECT_GE(covered, 3u);
}

TEST(Report, StudyReportEqualsFileReport) {
  // The same run rendered two ways: from the Study's in-memory log, and
  // from the log written to disk as CSV and as SYRCOL1, reopened with
  // open_source and derived with derive_sources — the `syrwatchctl
  // report` path. Every rendering must match byte for byte, and the
  // checked-in golden too, so a change both paths share cannot slip by.
  // A deliberate report change re-blesses the golden with `expected`.
  const auto config = tiny_config();
  core::Study study{config};
  study.run();
  const std::string expected = core::render_full_report(study);
  ASSERT_FALSE(expected.empty());
  std::ifstream golden_file{SYRWATCH_GOLDEN_DIR "/report_tiny.txt",
                            std::ios::binary};
  ASSERT_TRUE(golden_file) << "missing golden report_tiny.txt";
  const std::string golden{std::istreambuf_iterator<char>{golden_file},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(expected, golden);
  // Tables 8 and 10 carry rows, so the golden pins §5.4 discovery.
  for (const char* block :
       {"Censored keywords (Table 10)", "Top suspected domains (Table 8"}) {
    const auto at = golden.find(block);
    ASSERT_NE(at, std::string::npos) << block;
    const auto rule = golden.find("\n--", at);
    ASSERT_NE(rule, std::string::npos) << block;
    const auto row = golden.find('\n', rule + 1) + 1;
    EXPECT_NE(golden[row], '\n') << block << " has no rows";
  }

  const auto directory =
      std::filesystem::temp_directory_path() / "syrwatch_report_identity";
  std::filesystem::remove_all(directory);
  std::filesystem::create_directories(directory);
  const std::string csv_path = (directory / "log.csv").string();
  const std::string col_path = (directory / "log.col").string();
  {
    workload::SyriaScenario scenario{config};
    std::ofstream csv{csv_path};
    csv << proxy::log_csv_header() << '\n';
    colfmt::Writer col{col_path};
    scenario.run([&](const proxy::LogRecord& record) {
      csv << proxy::to_csv(record) << '\n';
      col.add(record);
    });
    col.finish();
  }

  const auto& scenario = study.scenario();
  for (const std::string& path : {csv_path, col_path}) {
    const analysis::OpenedSource opened = analysis::open_source(path);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto derived =
          analysis::derive_sources(opened.source(), config.seed, threads);
      const core::ReportSources sources{derived.full,
                                        derived.sample,
                                        derived.user,
                                        derived.denied,
                                        &scenario.geoip(),
                                        &scenario.relays(),
                                        &scenario.torrents(),
                                        threads};
      EXPECT_EQ(core::render_full_report(sources), expected)
          << path << " @ " << threads << " threads";
    }
  }
  std::filesystem::remove_all(directory);
}

TEST(Export, WritesAllFigureFiles) {
  core::Study study{tiny_config()};
  study.run();
  const auto directory =
      std::filesystem::temp_directory_path() / "syrwatch_export_test";
  std::filesystem::create_directories(directory);
  const auto written = analysis::export_all_figures(
      directory.string(), study.datasets().full, study.datasets().user,
      study.scenario().categorizer(), study.scenario().relays());
  EXPECT_EQ(written, 13u);
  for (const char* name :
       {"fig1_ports.tsv", "fig2_allowed.tsv", "fig2_censored.tsv",
        "fig2_denied.tsv", "fig4b_user_activity.tsv", "fig5_timeseries.tsv",
        "fig6_rcv.tsv", "fig7_load_total.tsv", "fig7_load_censored.tsv",
        "fig8a_tor_hourly.tsv", "fig9_rfilter.tsv",
        "fig10a_clean_host_requests.tsv",
        "fig10b_allowed_censored_ratio.tsv"}) {
    EXPECT_TRUE(std::filesystem::exists(directory / name)) << name;
    EXPECT_GT(std::filesystem::file_size(directory / name), 0u) << name;
  }
  std::filesystem::remove_all(directory);
}

}  // namespace
