// Table 8: the top-10 suspected (URL-blacklisted) domains recovered by the
// §5.4 discovery loop.

#include "analysis/string_discovery.h"
#include "analysis/traffic_stats.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

constexpr const char* kPaper[][2] = {
    {"metacafe.com", "17.33%"},   {"skype.com", "6.83%"},
    {"wikimedia.org", "4.16%"},   {".il", "1.52%"},
    {"amazon.com", "0.85%"},      {"aawsat.com", "0.70%"},
    {"jumblo.com", "0.31%"},      {"jeddahbikers.com", "0.29%"},
    {"badoo.com", "0.20%"},       {"islamway.com", "0.20%"},
};

void print_reproduction() {
  print_banner("Table 8 — top suspected domains (URL filtering)",
               "105 domains for which no request is ever allowed; "
               "metacafe.com and skype.com on top, the whole .il TLD "
               "blocked");

  const auto& full = default_study().datasets().full;
  const auto stats = analysis::traffic_stats(full);
  analysis::DiscoveryOptions options;
  options.min_count = 10;
  const auto discovery = analysis::discover_censored_strings(full, options);

  TextTable table{{"#", "Measured domain", "Censored", "% of censored",
                   "Proxied", "Paper domain", "Paper %"}};
  for (std::size_t i = 0; i < 10; ++i) {
    if (i < discovery.domains.size()) {
      const auto& domain = discovery.domains[i];
      table.add_row(
          {std::to_string(i + 1), domain.text, with_commas(domain.censored),
           percent(double(domain.censored) / double(stats.censored())),
           with_commas(domain.proxied), kPaper[i][0], kPaper[i][1]});
    } else {
      table.add_row({std::to_string(i + 1), "-", "-", "-", "-", kPaper[i][0],
                     kPaper[i][1]});
    }
  }
  print_block("Suspected domains (Table 8)", table);

  TextTable summary{{"Metric", "Measured", "Paper"}};
  summary.add_row({"Suspected domains discovered",
                   std::to_string(discovery.domains.size()),
                   "105 (at 600x our volume)"});
  summary.add_row(
      {"Censored requests explained",
       percent(double(discovery.censored_requests_explained) /
               double(discovery.censored_requests_total)),
       "(not reported)"});
  print_block("Discovery summary", summary);
}

void BM_StringDiscovery(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  analysis::DiscoveryOptions options;
  options.min_count = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::discover_censored_strings(full, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_StringDiscovery)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
