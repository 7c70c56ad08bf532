// Columnar container scan: size and throughput of the SYRCOL1 mmap path
// against the CSV row path it replaces. Not a paper experiment — this
// bench guards the storage-layer refactor: the container must stay
// several times smaller than the CSV and the mmap analyzers several
// times faster than load-then-scan, while remaining byte-identical at
// any thread count (EXPERIMENTS.md records the budgets).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/columnar.h"
#include "analysis/dataset.h"
#include "analysis/temporal.h"
#include "analysis/top_domains.h"
#include "bench_common.h"
#include "colfmt/container.h"
#include "proxy/log_io.h"
#include "util/atomic_io.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrbench;
namespace fs = std::filesystem;

constexpr std::size_t kRequests = 600'000;

/// The shared on-disk pair: one synthetic log written both ways, built
/// once per process.
struct ScanFixture {
  std::string csv_path;
  std::string col_path;
  std::uint64_t rows = 0;
  std::uint64_t csv_bytes = 0;
  std::uint64_t col_bytes = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

const ScanFixture& fixture() {
  static const ScanFixture fx = [] {
    ScanFixture built;
    const fs::path dir = fs::temp_directory_path();
    built.csv_path = (dir / "syrbench_colfmt.csv").string();
    built.col_path = (dir / "syrbench_colfmt.col").string();
    auto config = default_config();
    config.total_requests = kRequests;
    workload::SyriaScenario scenario{config};
    util::AtomicFileWriter csv{built.csv_path};
    csv.write(proxy::log_csv_header());
    csv.write("\n");
    colfmt::Writer col{built.col_path};
    std::int64_t first = 0;
    std::int64_t last = 0;
    scenario.run([&](const proxy::LogRecord& record) {
      if (built.rows == 0) first = record.time;
      last = record.time;
      ++built.rows;
      csv.write(proxy::to_csv(record));
      csv.write("\n");
      col.add(record);
    });
    built.csv_bytes = csv.commit().bytes;
    built.col_bytes = col.finish().bytes;
    built.start = first;
    built.end = last + 1;
    return built;
  }();
  return fx;
}

analysis::Dataset load_csv(const ScanFixture& fx) {
  std::ifstream in{fx.csv_path};
  const auto log = proxy::read_log_lenient(in);
  analysis::Dataset dataset;
  for (const auto& record : log.records) dataset.add(record);
  return dataset;
}

analysis::TopDomainsOptions top_options() {
  return {proxy::TrafficClass::kCensored, 30, std::nullopt};
}

analysis::RcvOptions rcv_options(const ScanFixture& fx) {
  return {{fx.start, fx.end}, {300}};
}

void print_reproduction() {
  print_banner("Columnar container — size and scan-path identity",
               "storage-layer guard, not a paper table: SYRCOL1 must hold "
               "the compression and byte-identity contracts of DESIGN.md "
               "§4.9");
  const auto& fx = fixture();
  TextTable sizes{{"Artifact", "Bytes", "Ratio"}};
  sizes.add_row({"CSV log", with_commas(fx.csv_bytes), "1.00x"});
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.2fx",
                static_cast<double>(fx.csv_bytes) /
                    static_cast<double>(fx.col_bytes));
  sizes.add_row({"SYRCOL1 container", with_commas(fx.col_bytes), ratio});
  print_block("On-disk size (" + with_commas(fx.rows) + " records)", sizes);

  // Identity: the columnar analyzers must reproduce the row path exactly,
  // at 1 and 8 threads.
  const auto dataset = load_csv(fx);
  const auto row_top = analysis::top_domains(dataset, top_options());
  const auto row_rcv = analysis::rcv_series(dataset, rcv_options(fx));
  TextTable identity{{"Analyzer", "Threads", "Matches CSV row path"}};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    analysis::ColumnarLog log{colfmt::Reader::open(fx.col_path), threads};
    const auto col_top = analysis::top_domains(log, top_options(), threads);
    const auto col_rcv = analysis::rcv_series(log, rcv_options(fx), threads);
    bool top_same = row_top.size() == col_top.size();
    for (std::size_t i = 0; top_same && i < row_top.size(); ++i) {
      top_same = row_top[i].domain == col_top[i].domain &&
                 row_top[i].count == col_top[i].count &&
                 row_top[i].share == col_top[i].share;
    }
    identity.add_row({"top_domains", std::to_string(threads),
                      top_same ? "yes" : "NO"});
    identity.add_row({"rcv_series", std::to_string(threads),
                      row_rcv.rcv == col_rcv.rcv ? "yes" : "NO"});
  }
  print_block("Byte-identity cross-check", identity);
  const auto report = colfmt::verify_file(fx.col_path);
  std::printf("container verify: %s (%s blocks, %s pages checked)\n\n",
              report.ok ? "ok" : "FAILED", with_commas(report.blocks).c_str(),
              with_commas(report.pages_checked).c_str());
}

// CSV row path: parse the log, build the Dataset, run top_domains + RCV.
// This is what `syrwatchctl top log.csv` pays per invocation.
void BM_CsvLoadTopRcv(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state) {
    const auto dataset = load_csv(fx);
    benchmark::DoNotOptimize(
        analysis::top_domains(dataset, top_options()).size());
    benchmark::DoNotOptimize(
        analysis::rcv_series(dataset, rcv_options(fx)).rcv.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.csv_bytes));
}
BENCHMARK(BM_CsvLoadTopRcv)->Unit(benchmark::kMillisecond);

// Columnar path: mmap the container, decode its blocks once at open and
// scan the resident columns — `syrwatchctl top --threads=N log.col`.
void BM_ColScanTopRcv(benchmark::State& state) {
  const auto& fx = fixture();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    analysis::ColumnarLog log{colfmt::Reader::open(fx.col_path), threads};
    benchmark::DoNotOptimize(
        analysis::top_domains(log, top_options(), threads).size());
    benchmark::DoNotOptimize(
        analysis::rcv_series(log, rcv_options(fx), threads).rcv.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.col_bytes));
}
BENCHMARK(BM_ColScanTopRcv)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// Full-file integrity pass — the `syrwatchctl verify log.col` cost.
void BM_ColVerify(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(colfmt::verify_file(fx.col_path).ok);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.col_bytes));
}
BENCHMARK(BM_ColVerify)->Unit(benchmark::kMillisecond);

// CSV -> container conversion throughput (`syrwatchctl convert`).
void BM_CsvToCol(benchmark::State& state) {
  const auto& fx = fixture();
  const std::string out =
      (fs::temp_directory_path() / "syrbench_colfmt_conv.col").string();
  for (auto _ : state) {
    std::ifstream in{fx.csv_path};
    std::string line;
    std::getline(in, line);  // header
    colfmt::Writer writer{out};
    while (std::getline(in, line)) {
      const auto record = proxy::from_csv(line);
      if (record) writer.add(*record);
    }
    benchmark::DoNotOptimize(writer.finish().bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
  std::error_code ec;
  fs::remove(out, ec);
}
BENCHMARK(BM_CsvToCol)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
