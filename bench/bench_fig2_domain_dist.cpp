// Fig. 2: requests-per-unique-domain distribution (the power law).

#include "analysis/domain_dist.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_series(const char* name, proxy::TrafficClass cls) {
  const auto dist =
      analysis::domain_distribution(default_study().datasets().full, cls);

  // Log-spaced sample of the (#domains, #requests) point cloud.
  TextTable table{{"# requests (y)", "# domains with that count (x)"}};
  std::uint64_t next_threshold = 1;
  for (const auto& [requests, domains] : dist.domains_by_request_count) {
    if (requests < next_threshold) continue;
    table.add_row({with_commas(requests), with_commas(domains)});
    next_threshold = requests * 3;
  }
  print_block(std::string("Fig. 2 series — ") + name, table);

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "unique domains: %s | max requests on one domain: %s | "
                "log-log slope: %.2f (paper: power law, decreasing)\n\n",
                with_commas(dist.unique_domains).c_str(),
                with_commas(dist.max_requests).c_str(), dist.loglog_slope);
  std::fputs(buf, stdout);
}

void print_reproduction() {
  print_banner("Fig. 2 — # requests per unique domain",
               "Power-law curves for allowed/denied/censored; a 1e-5 "
               "fraction of hosts receives thousands-to-millions of "
               "requests; allowed sits ~1 order of magnitude above denied");
  print_series("allowed", proxy::TrafficClass::kAllowed);
  print_series("censored", proxy::TrafficClass::kCensored);
  print_series("denied (errors)", proxy::TrafficClass::kError);
}

void BM_DomainDistribution(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::domain_distribution(full, proxy::TrafficClass::kAllowed));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_DomainDistribution)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
