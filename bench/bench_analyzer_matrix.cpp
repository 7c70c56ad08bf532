// Analyzer scan matrix: every class of container-native analyzer timed on
// both LogSource stores (in-memory row Dataset, decoded SYRCOL1
// container) at 1 and 8 threads. Not a paper experiment — this bench
// guards the scan layer: the same analyzer must run source-agnostic, and
// the matrix shows what each backend and thread count costs.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/agents.h"
#include "analysis/columnar.h"
#include "analysis/dataset.h"
#include "analysis/https_audit.h"
#include "analysis/port_dist.h"
#include "analysis/redirects.h"
#include "analysis/scan.h"
#include "analysis/top_domains.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "analysis/weather.h"
#include "bench_common.h"
#include "colfmt/container.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrbench;
namespace fs = std::filesystem;

constexpr std::size_t kRequests = 600'000;

/// Backend x thread-count matrix cells, passed as the benchmark Arg.
enum Mode : int {
  kRow1 = 0,   // Dataset, 1 thread
  kRow8 = 1,   // Dataset, 8 threads
  kCol1 = 2,   // container, 1 thread
  kCol8 = 3,   // container, 8 threads
};

struct MatrixFixture {
  std::string col_path;
  std::unique_ptr<analysis::Dataset> dataset;
  std::unique_ptr<analysis::ColumnarLog> columnar;
  std::uint64_t rows = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

const MatrixFixture& fixture() {
  static const MatrixFixture fx = [] {
    MatrixFixture built;
    built.col_path =
        (fs::temp_directory_path() / "syrbench_analyzer_matrix.col").string();
    auto config = default_config();
    config.total_requests = kRequests;
    workload::SyriaScenario scenario{config};
    built.dataset = std::make_unique<analysis::Dataset>();
    colfmt::Writer col{built.col_path};
    scenario.run([&](const proxy::LogRecord& record) {
      if (built.rows == 0) built.start = record.time;
      built.end = record.time + 1;
      ++built.rows;
      built.dataset->add(record);
      col.add(record);
    });
    col.finish();
    built.columnar = std::make_unique<analysis::ColumnarLog>(
        colfmt::Reader::open(built.col_path));
    return built;
  }();
  return fx;
}

/// Runs `analyze(source, threads)` per iteration with the cell's backend
/// and thread count.
template <typename Analyze>
void run_matrix(benchmark::State& state, Analyze&& analyze) {
  const auto& fx = fixture();
  const auto mode = static_cast<Mode>(state.range(0));
  for (auto _ : state) {
    switch (mode) {
      case kRow1:
        analyze(analysis::LogSource{*fx.dataset}, 1);
        break;
      case kRow8:
        analyze(analysis::LogSource{*fx.dataset}, 8);
        break;
      case kCol1:
        analyze(analysis::LogSource{*fx.columnar}, 1);
        break;
      case kCol8:
        analyze(analysis::LogSource{*fx.columnar}, 8);
        break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
}

#define MATRIX_BENCH(name)                               \
  BENCHMARK(name)                                        \
      ->Arg(kRow1)                                       \
      ->Arg(kRow8)                                       \
      ->Arg(kCol1)                                       \
      ->Arg(kCol8)                                       \
      ->Unit(benchmark::kMillisecond)

void BM_TrafficStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::traffic_stats(src, threads).total);
  });
}
MATRIX_BENCH(BM_TrafficStats);

void BM_TopDomains(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(
        analysis::top_domains(src,
                              {proxy::TrafficClass::kCensored, 30,
                               std::nullopt},
                              threads)
            .size());
  });
}
MATRIX_BENCH(BM_TopDomains);

void BM_PortDistribution(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::port_distribution(src, 0, threads)
                                 .size());
  });
}
MATRIX_BENCH(BM_PortDistribution);

void BM_UserStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::user_stats(src, threads).total_users);
  });
}
MATRIX_BENCH(BM_UserStats);

void BM_AgentStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::agent_stats(src, 10, threads).size());
  });
}
MATRIX_BENCH(BM_AgentStats);

void BM_HttpsStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::https_stats(src, threads).total);
  });
}
MATRIX_BENCH(BM_HttpsStats);

void BM_RedirectHosts(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::redirect_hosts(src, {.k = 0}, threads)
                                 .size());
  });
}
MATRIX_BENCH(BM_RedirectHosts);

void BM_KeywordWeather(benchmark::State& state) {
  static const std::vector<std::string> kKeywords{"proxy", "israel",
                                                  "facebook"};
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(
        analysis::keyword_weather(
            src, kKeywords, {{fixture().start, fixture().end}, {3600}},
            threads)
            .size());
  });
}
MATRIX_BENCH(BM_KeywordWeather);

#undef MATRIX_BENCH

// --- reproduction table -----------------------------------------------------

double seconds_of(const std::function<void()>& work) {
  const auto begin = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

void print_reproduction() {
  print_banner("Analyzer scan matrix — row Dataset vs SYRCOL1 container",
               "scan-layer guard, not a paper table: analyzers must run "
               "source-agnostic on both backends");
  const auto& fx = fixture();

  struct NamedAnalyzer {
    const char* name;
    std::function<void(const analysis::LogSource&, std::size_t)> run;
  };
  const std::vector<NamedAnalyzer> analyzers{
      {"traffic_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::traffic_stats(src, threads)
                                      .total);
       }},
      {"user_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::user_stats(src, threads)
                                      .total_users);
       }},
      {"https_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::https_stats(src, threads).total);
       }},
      {"agent_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::agent_stats(src, 10, threads)
                                      .size());
       }},
      {"port_distribution",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::port_distribution(src, 0,
                                                              threads)
                                      .size());
       }},
  };

  TextTable table{{"Analyzer", "Rows 1T", "Rows 8T", "Container 1T",
                   "Container 8T"}};
  const auto ms = [](double seconds) {
    char text[32];
    std::snprintf(text, sizeof text, "%.1f ms", seconds * 1e3);
    return std::string{text};
  };
  for (const auto& analyzer : analyzers) {
    std::vector<std::string> row{analyzer.name};
    for (const analysis::LogSource source :
         {analysis::LogSource{*fx.dataset}, analysis::LogSource{*fx.columnar}})
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}})
        row.push_back(ms(seconds_of([&] { analyzer.run(source, threads); })));
    table.add_row(std::move(row));
  }
  print_block("Analyzer scan time by backend and thread count (" +
                  with_commas(fx.rows) + " records)",
              table);
}

}  // namespace

SYRBENCH_MAIN(print_reproduction)
