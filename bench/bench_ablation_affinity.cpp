// Ablation: domain-affinity routing (DESIGN.md / §5.2).
//
// The paper infers that the farm redirects certain domains to designated
// proxies (>95% of metacafe.com on SG-48); the inference rests on Table 6's
// similarity structure. This bench re-runs the deployment *without*
// affinity: the cosine matrix collapses to near-uniform similarity and the
// metacafe concentration disappears — i.e. the observed structure really
// does require the routing mechanism.

#include "analysis/proxy_compare.h"
#include "analysis/top_domains.h"
#include "bench_common.h"
#include "util/strings.h"
#include "workload/diurnal.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

syrwatch::workload::ScenarioConfig no_affinity_config() {
  auto config = default_config();
  config.total_requests = 600'000;
  config.enable_affinity = false;
  return config;
}

double metacafe_share_on_sg48(const analysis::LogSource& full) {
  std::uint64_t total = 0, on_sg48 = 0;
  analysis::scan_increment(full, 0, [&](const analysis::Record& r) {
    if (!util::host_matches_domain(r.host, "metacafe.com")) return;
    if (workload::sg42_only_day(r.time)) return;
    ++total;
    if (r.proxy_index == 6) ++on_sg48;
  });
  return total == 0 ? 0.0 : double(on_sg48) / double(total);
}

void print_matrix(const char* title, const analysis::LogSource& full) {
  const auto sim = analysis::censored_domain_similarity(
      full, {{workload::at(8, 1), workload::at(8, 7)}});
  TextTable table{{"", "SG-42", "SG-43", "SG-44", "SG-45", "SG-46", "SG-47",
                   "SG-48"}};
  for (std::size_t a = 0; a < policy::kProxyCount; ++a) {
    std::vector<std::string> row{policy::proxy_name(a)};
    for (std::size_t b = 0; b < policy::kProxyCount; ++b) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.3f", sim.matrix[a][b]);
      row.emplace_back(buf);
    }
    table.add_row(std::move(row));
  }
  print_block(title, table);
}

void print_reproduction() {
  print_banner("Ablation — domain-affinity routing",
               "§5.2 infers specialized proxies from Table 6 + the metacafe "
               "concentration on SG-48; removing the routing erases both "
               "signatures");

  auto& with = default_study();
  auto& without = study_for(no_affinity_config());

  TextTable table{{"Metric", "With affinity", "Without"}};
  char a[16], b[16];
  std::snprintf(a, sizeof a, "%.1f%%",
                100.0 * metacafe_share_on_sg48(with.datasets().full));
  std::snprintf(b, sizeof b, "%.1f%%",
                100.0 * metacafe_share_on_sg48(without.datasets().full));
  table.add_row({"metacafe.com handled by SG-48 (paper: >95%)", a, b});
  print_block("Concentration signature", table);

  print_matrix("Cosine matrix WITH affinity (Table 6 structure)",
               with.datasets().full);
  print_matrix("Cosine matrix WITHOUT affinity (structure collapses)",
               without.datasets().full);
}

void BM_SimilarityNoAffinity(benchmark::State& state) {
  const auto& full = study_for(no_affinity_config()).datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::censored_domain_similarity(
        full, {{workload::at(8, 1), workload::at(8, 7)}}));
  }
}
BENCHMARK(BM_SimilarityNoAffinity)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
