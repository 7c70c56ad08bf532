// Ablation: the response cache (DESIGN.md decision on PROXIED semantics).
//
// The leak's 0.47% PROXIED records — including PROXIED entries for fully
// censored domains (Tables 8/10/13) — require a cache that replays prior
// *decisions*, not only prior content. This bench runs the deployment with
// the cache disabled and shows both signatures vanish, and times the proxy
// pipeline in each mode.

#include "analysis/traffic_stats.h"
#include "bench_common.h"
#include "util/strings.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

syrwatch::workload::ScenarioConfig no_cache_config() {
  auto config = default_config();
  config.total_requests = 600'000;
  config.proxy_config.observed_admit_prob = 0.0;
  config.proxy_config.policy_admit_prob = 0.0;
  return config;
}

std::uint64_t proxied_on_censored_domains(const analysis::LogSource& full) {
  std::uint64_t count = 0;
  analysis::scan_increment(full, 0, [&](const analysis::Record& r) {
    if (r.result == proxy::FilterResult::kProxied &&
        proxy::is_policy_exception(r.exception))
      ++count;
  });
  return count;
}

void print_reproduction() {
  print_banner("Ablation — response cache and PROXIED semantics",
               "Table 3: 0.47% PROXIED; Tables 8/10/13: censored domains "
               "show small PROXIED counts, possible only if denial "
               "decisions are cached and replayed");

  auto& with = default_study();
  auto& without = study_for(no_cache_config());
  const auto with_stats = analysis::traffic_stats(with.datasets().full);
  const auto without_stats =
      analysis::traffic_stats(without.datasets().full);

  TextTable table{{"Metric", "With cache", "Cache disabled", "Paper"}};
  table.add_row({"PROXIED share",
                 percent(with_stats.share(with_stats.proxied)),
                 percent(without_stats.share(without_stats.proxied)),
                 "0.47%"});
  table.add_row({"PROXIED replays of censorship decisions",
                 with_commas(proxied_on_censored_domains(with.datasets().full)),
                 with_commas(
                     proxied_on_censored_domains(without.datasets().full)),
                 "e.g. metacafe 1,164"});
  table.add_row({"Censored share",
                 percent(with_stats.share(with_stats.censored())),
                 percent(without_stats.share(without_stats.censored())),
                 "0.98% (unchanged: cache hits hide, not add, decisions)"});
  print_block("Cache signatures", table);
}

void BM_PipelineWithCache(benchmark::State& state) {
  // End-to-end generation throughput with the default cache.
  for (auto _ : state) {
    auto config = default_config();
    config.total_requests = 50'000;
    workload::SyriaScenario scenario{config};
    std::uint64_t count = 0;
    scenario.run([&](const proxy::LogRecord&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_PipelineWithCache)->Unit(benchmark::kMillisecond);

void BM_PipelineNoCache(benchmark::State& state) {
  for (auto _ : state) {
    auto config = no_cache_config();
    config.total_requests = 50'000;
    workload::SyriaScenario scenario{config};
    std::uint64_t count = 0;
    scenario.run([&](const proxy::LogRecord&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_PipelineNoCache)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
