// Table 11: per-country censorship ratio over the direct-IP traffic.

#include "analysis/ip_censorship.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Table 11 — censorship ratio for direct-IP destinations",
               "Israel 6.69%, Kuwait 2.02%, Russia 0.64%, UK 0.26%, "
               "NL 0.17%, Singapore 0.13%, Bulgaria 0.09%",
               /*boosted=*/true);

  const auto& full = boosted_study().datasets().full;
  const auto countries =
      analysis::country_censorship(full, boosted_study().scenario().geoip());

  static const std::map<std::string, const char*> kPaper = {
      {"Israel", "6.69%"},        {"Kuwait", "2.02%"},
      {"Russian Federation", "0.64%"}, {"United Kingdom", "0.26%"},
      {"Netherlands", "0.17%"},   {"Singapore", "0.13%"},
      {"Bulgaria", "0.09%"},
  };

  TextTable table{{"Country", "Measured ratio", "# Censored", "# Allowed",
                   "Paper ratio"}};
  for (const auto& entry : countries) {
    const auto paper = kPaper.find(entry.country);
    table.add_row({entry.country, percent(entry.ratio()),
                   with_commas(entry.censored), with_commas(entry.allowed),
                   paper == kPaper.end() ? "-" : paper->second});
  }
  print_block("Censorship ratio by country (Table 11)", table);

  TextTable summary{{"Metric", "Measured"}};
  summary.add_row({"Direct-IP requests (DIPv4 size)",
                   with_commas(analysis::direct_ip_requests(full))});
  print_block("DIPv4", summary);
}

void BM_CountryCensorship(benchmark::State& state) {
  const auto& full = boosted_study().datasets().full;
  const auto& geoip = boosted_study().scenario().geoip();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::country_censorship(full, geoip));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_CountryCensorship)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
