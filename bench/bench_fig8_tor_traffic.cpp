// Fig. 8: Tor request volume per hour and SG-44's role in Tor censorship.

#include "analysis/tor_analysis.h"
#include "bench_common.h"
#include "util/simtime.h"
#include "workload/diurnal.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Fig. 8 / Sec 7.1 — Tor traffic",
               "95K requests to 1,111 relays; 73% Torhttp; 1.38% censored; "
               "16.2% tcp errors; 99.9% of censored Tor traffic on SG-44; "
               "only Toronion censored; peaks on Aug 3",
               /*boosted=*/true);

  const auto& full = boosted_study().datasets().full;
  const auto& relays = boosted_study().scenario().relays();
  const auto stats = analysis::tor_stats(full, relays);

  TextTable table{{"Metric", "Measured", "Paper"}};
  table.add_row({"Tor requests", with_commas(stats.requests),
                 "95K (of 751M)"});
  table.add_row({"Unique relays contacted", with_commas(stats.unique_relays),
                 "1,111"});
  table.add_row({"Torhttp share",
                 percent(stats.requests == 0
                             ? 0.0
                             : double(stats.http_requests) /
                                   double(stats.requests)),
                 "73%"});
  table.add_row({"Censored share",
                 percent(stats.requests == 0
                             ? 0.0
                             : double(stats.censored) /
                                   double(stats.requests)),
                 "1.38%"});
  table.add_row({"tcp_error share",
                 percent(stats.requests == 0
                             ? 0.0
                             : double(stats.tcp_errors) /
                                   double(stats.requests)),
                 "16.2%"});
  table.add_row({"Censored Torhttp", with_commas(stats.censored_http),
                 "0 (Torhttp always allowed)"});
  table.add_row(
      {"Censored share on SG-44",
       percent(stats.censored == 0
                   ? 0.0
                   : double(stats.censored_by_proxy[policy::kTorCensorProxy]) /
                         double(stats.censored)),
       "99.9%"});
  print_block("Tor statistics (Sec 7.1)", table);

  // Fig. 8a: requests per hour, Aug 1-6 (every 6 hours shown).
  const auto hourly = analysis::tor_hourly_series(
      full, relays,
      analysis::TorHourlyOptions{{workload::at(8, 1), workload::at(8, 7)}});
  TextTable series{{"Hour", "Tor requests"}};
  for (std::size_t bin = 0; bin < hourly.bin_count(); bin += 6) {
    std::string bar(hourly.at(bin) / 2, '#');
    series.add_row({util::format_datetime(hourly.bin_start(bin)).substr(5, 8),
                    with_commas(hourly.at(bin)) + "  " + bar});
  }
  print_block("Fig. 8a — Tor requests per hour (peaks on Aug 3)", series);

  // Fig. 8b: SG-44's share of all censored traffic vs its censored-Tor
  // count per 6-hour bin — Tor blocking varies more than the proxy's
  // overall censorship, as the paper observes.
  const auto sg44 = analysis::proxy_censored_series(
      full, relays, policy::kTorCensorProxy, workload::at(8, 1),
      workload::at(8, 7), 6 * 3600);
  TextTable fig8b{{"Window", "SG-44 share of censored", "Tor censored"}};
  for (std::size_t bin = 0; bin < sg44.censored_share.size(); ++bin) {
    fig8b.add_row(
        {util::format_datetime(sg44.origin +
                               static_cast<std::int64_t>(bin) *
                                   sg44.bin_seconds)
             .substr(5, 8),
         percent(sg44.censored_share[bin], 1),
         with_commas(sg44.tor_censored[bin])});
  }
  print_block("Fig. 8b — SG-44: overall censored share (steady ~1/7) vs "
              "Tor censorship (bursty)",
              fig8b);
}

void BM_TorStats(benchmark::State& state) {
  const auto& full = boosted_study().datasets().full;
  const auto& relays = boosted_study().scenario().relays();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::tor_stats(full, relays));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_TorStats)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
