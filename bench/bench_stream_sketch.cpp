// Streaming analysis guard (DESIGN.md §4.12): not a paper experiment —
// this bench holds the online mode to its contract. The sketch-backed
// rolling report must (a) reproduce the exact analyzers when its window
// covers the whole log, (b) stay inside its stated error bounds when the
// SpaceSaving tables saturate, and (c) make a snapshot so much cheaper
// than an exact recompute that per-interval reporting is free
// (EXPERIMENTS.md records the budgets).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>

#include "analysis/dataset.h"
#include "analysis/scan.h"
#include "analysis/stream.h"
#include "analysis/stream_report.h"
#include "analysis/temporal.h"
#include "analysis/top_domains.h"
#include "bench_common.h"
#include "proxy/log_io.h"
#include "util/atomic_io.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrbench;
namespace fs = std::filesystem;

constexpr std::size_t kRequests = 400'000;

/// One synthetic deployment, kept as a row Dataset (the exact baseline)
/// and as an on-disk CSV spool (what a live run's tail consumes).
struct StreamFixture {
  std::string spool_path;
  std::uint64_t spool_bytes = 0;
  analysis::Dataset dataset;
  std::uint64_t rows = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

const StreamFixture& fixture() {
  static const StreamFixture& fx = *[] {
    auto* built = new StreamFixture;
    built->spool_path =
        (fs::temp_directory_path() / "syrbench_stream_spool.csv").string();
    auto config = default_config();
    config.total_requests = kRequests;
    workload::SyriaScenario scenario{config};
    util::AtomicFileWriter csv{built->spool_path};
    csv.write(proxy::log_csv_header());
    csv.write("\n");
    bool first = true;
    scenario.run([&](const proxy::LogRecord& record) {
      if (first) built->start = record.time;
      first = false;
      built->end = record.time + 1;
      ++built->rows;
      csv.write(proxy::to_csv(record));
      csv.write("\n");
      built->dataset.add(record);
    });
    built->spool_bytes = csv.commit().bytes;
    return built;
  }();
  return fx;
}

/// Window wide enough for the whole deployment: the exact-identity regime.
analysis::StreamReportOptions whole_log_options() {
  analysis::StreamReportOptions options;
  options.bin = {300};
  options.window_bins = 4096;
  return options;
}

/// Constrained configuration: 1 h window, small tables — the regime a
/// long-lived watch actually runs in.
analysis::StreamReportOptions constrained_options() {
  auto options = whole_log_options();
  options.window_bins = 12;
  options.top_capacity = 64;
  return options;
}

analysis::StreamAnalyzer replay(const analysis::StreamReportOptions& options) {
  analysis::StreamAnalyzer analyzer{options};
  analysis::scan_increment(
      analysis::LogSource{fixture().dataset}, 0,
      [&](const analysis::Record& r) { analyzer.ingest(r); });
  return analyzer;
}

void print_reproduction() {
  print_banner("Streaming sketches — exact-vs-sketch error and regimes",
               "online-mode guard, not a paper table: whole-log windows "
               "must match the exact analyzers exactly; saturated tables "
               "must stay inside their stated bounds");
  const auto& fx = fixture();

  // Whole-log window: every figure must be exact.
  auto wide = replay(whole_log_options());
  const auto wide_report = wide.snapshot();
  const auto exact_top = analysis::top_domains(
      analysis::LogSource{fx.dataset},
      {proxy::TrafficClass::kCensored, 10, std::nullopt});
  bool identical = wide_report.domains_exact &&
                   wide_report.top_censored_domains.size() == exact_top.size();
  for (std::size_t i = 0; identical && i < exact_top.size(); ++i)
    identical =
        wide_report.top_censored_domains[i].key == exact_top[i].domain &&
        wide_report.top_censored_domains[i].count == exact_top[i].count;
  TextTable wide_table{{"Check", "Result"}};
  wide_table.add_row({"top censored domains == exact top_domains",
                      identical ? "yes" : "NO"});
  wide_table.add_row(
      {"window evictions", with_commas(wide_report.window_evicted_bins)});
  wide_table.add_row({"Count-Min bound (requests)",
                      std::to_string(static_cast<std::uint64_t>(
                          wide_report.category_error))});
  print_block("Whole-log window (" + with_commas(fx.rows) + " records)",
              wide_table);

  // Constrained configuration: report the worst observed over-estimate
  // against the stated bound.
  auto tight = replay(constrained_options());
  const auto tight_report = tight.snapshot();
  std::unordered_map<std::string, std::uint64_t> truth;
  analysis::scan_increment(
      analysis::LogSource{fx.dataset}, 0, [&](const analysis::Record& r) {
        if (r.cls == proxy::TrafficClass::kCensored)
          ++truth[std::string(r.domain)];
      });
  std::uint64_t worst_over = 0;
  bool bounded = true;
  for (const auto& entry : tight_report.top_censored_domains) {
    const auto it = truth.find(entry.key);
    const std::uint64_t exact = it == truth.end() ? 0 : it->second;
    const std::uint64_t over = entry.count - exact;
    worst_over = std::max(worst_over, over);
    bounded = bounded && entry.count >= exact && over <= entry.error;
  }
  TextTable tight_table{{"Metric", "Value"}};
  tight_table.add_row(
      {"SpaceSaving saturated", tight_report.domains_exact ? "no" : "yes"});
  tight_table.add_row({"stated bound (max over-estimate)",
                       with_commas(tight_report.domains_error_bound)});
  tight_table.add_row(
      {"worst observed over-estimate", with_commas(worst_over)});
  tight_table.add_row(
      {"all entries within per-item bound", bounded ? "yes" : "NO"});
  tight_table.add_row({"window evicted bins",
                       with_commas(tight_report.window_evicted_bins)});
  print_block("Constrained window (64 counters, 1 h window)", tight_table);
}

// Per-record ingest cost: what the watch loop pays per spooled record on
// top of parsing.
void BM_StreamIngest(benchmark::State& state) {
  const auto& fx = fixture();
  const auto options = constrained_options();
  for (auto _ : state) {
    analysis::StreamAnalyzer analyzer{options};
    analysis::scan_increment(
        analysis::LogSource{fx.dataset}, 0,
        [&](const analysis::Record& r) { analyzer.ingest(r); });
    benchmark::DoNotOptimize(analyzer.records());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
}
BENCHMARK(BM_StreamIngest)->Unit(benchmark::kMillisecond);

// Rolling-report snapshot + JSON render: the per-interval cost of the
// watch driver once ingest is paid.
void BM_SnapshotAndRender(benchmark::State& state) {
  auto analyzer = replay(constrained_options());
  for (auto _ : state) {
    auto report = analyzer.snapshot();
    benchmark::DoNotOptimize(analysis::stream_report_json(report).size());
  }
}
BENCHMARK(BM_SnapshotAndRender)->Unit(benchmark::kMillisecond);

// The exact recompute a snapshot replaces: per-interval top_domains +
// traffic + RCV over everything seen so far.
void BM_ExactRecompute(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::top_domains(
            analysis::LogSource{fx.dataset},
            {proxy::TrafficClass::kCensored, 10, std::nullopt})
            .size());
    benchmark::DoNotOptimize(
        analysis::traffic_time_series(analysis::LogSource{fx.dataset},
                                      {{fx.start, fx.end}, {300}})
            .censored.total());
    benchmark::DoNotOptimize(
        analysis::rcv_series(analysis::LogSource{fx.dataset},
                             {{fx.start, fx.end}, {300}})
            .rcv.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
}
BENCHMARK(BM_ExactRecompute)->Unit(benchmark::kMillisecond);

// Spool tail throughput: cold-tailing the whole CSV spool (parse +
// buffer), the dominant cost of catching up on a running deployment.
void BM_SpoolTailCatchUp(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state) {
    analysis::StreamSource source{fx.spool_path};
    benchmark::DoNotOptimize(source.poll());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.spool_bytes));
}
BENCHMARK(BM_SpoolTailCatchUp)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
