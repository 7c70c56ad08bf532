// Fig. 5: censored and allowed traffic over the five August days, absolute
// and normalized.

#include "analysis/temporal.h"
#include "bench_common.h"
#include "util/simtime.h"
#include "workload/diurnal.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Fig. 5 — traffic over Aug 1-6",
               "Diurnal pattern (morning rise, afternoon/night lull); "
               "visible Friday (Aug 5) reduction; two sudden drops on Aug "
               "3; censored roughly tracks allowed");

  const auto series = analysis::traffic_time_series(
      default_study().datasets().full,
      analysis::TrafficSeriesOptions{{workload::at(8, 1), workload::at(8, 7)},
                                     {3600}});

  TextTable table{{"Hour (UTC)", "Allowed", "Censored", "Censored/Allowed"}};
  for (std::size_t bin = 0; bin < series.allowed.bin_count(); bin += 4) {
    const auto t = series.allowed.bin_start(bin);
    const auto allowed = series.allowed.at(bin);
    const auto censored = series.censored.at(bin);
    table.add_row({util::format_datetime(t).substr(0, 13) + "h",
                   with_commas(allowed), with_commas(censored),
                   percent(allowed == 0 ? 0.0
                                        : double(censored) / double(allowed))});
  }
  print_block("Hourly series, every 4th hour (Fig. 5a)", table);

  // Day-level structure, the visible Friday dip.
  TextTable days{{"Day", "Allowed", "vs Wed Aug 3"}};
  std::array<std::uint64_t, 6> per_day{};
  for (std::size_t bin = 0; bin < series.allowed.bin_count(); ++bin)
    per_day[bin / 24] += series.allowed.at(bin);
  static constexpr const char* kDayNames[] = {"Mon 8-1", "Tue 8-2", "Wed 8-3",
                                              "Thu 8-4", "Fri 8-5", "Sat 8-6"};
  for (std::size_t d = 0; d < per_day.size(); ++d) {
    days.add_row({kDayNames[d], with_commas(per_day[d]),
                  percent(double(per_day[d]) / double(per_day[2]))});
  }
  print_block("Per-day volume (paper: Friday slowdown during protests)",
              days);
}

void BM_TimeSeries(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::traffic_time_series(
        full, analysis::TrafficSeriesOptions{
                  {workload::at(8, 1), workload::at(8, 7)}, {300}}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_TimeSeries)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
