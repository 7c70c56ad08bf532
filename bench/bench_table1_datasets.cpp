// Table 1: dataset sizes and periods (Dfull / Dsample / Duser / Ddenied).

#include "analysis/traffic_stats.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Table 1 — Datasets description",
               "Full 751,295,830 | Sample 32,310,958 (4%) | "
               "User 6,374,333 | Denied 47,452,194");

  const auto& datasets = default_study().datasets();
  const double full = static_cast<double>(datasets.full.rows());

  TextTable table{{"Dataset", "# Requests", "% of Dfull", "Paper %"}};
  table.add_row({"Full", with_commas(datasets.full.rows()), "100.00%",
                 "100.00%"});
  table.add_row({"Sample (4%)", with_commas(datasets.sample.rows()),
                 percent(datasets.sample.rows() / full), "4.30%"});
  table.add_row({"User", with_commas(datasets.user.rows()),
                 percent(datasets.user.rows() / full), "0.85%"});
  table.add_row({"Denied", with_commas(datasets.denied.rows()),
                 percent(datasets.denied.rows() / full), "6.32%"});
  print_block("Datasets (Table 1) — scale ~1:600", table);
}

void BM_DeriveSources(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    const auto derived = analysis::derive_sources(full, 7);
    benchmark::DoNotOptimize(derived.sample.rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_DeriveSources)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
