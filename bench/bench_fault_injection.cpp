// Fault-injection robustness: headline metrics of the same deployment
// under the `sg47-outage` fault profile vs. the healthy baseline, plus a
// timing of the faulted pipeline. Not a paper experiment — the leak
// itself is the *result* of uneven proxy coverage (Table 1), and this
// bench tracks the fault layer that reproduces such degradation on
// purpose while keeping the emitted log deterministic.

#include "bench_common.h"

#include <sstream>

#include "analysis/coverage.h"
#include "analysis/traffic_stats.h"
#include "core/study.h"
#include "fault/corruptor.h"
#include "fault/profiles.h"
#include "policy/syria.h"
#include "proxy/log_io.h"
#include "util/simtime.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

constexpr std::size_t kSg47 = 5;  // s-ip 82.137.200.47

workload::ScenarioConfig fault_config(const char* profile) {
  auto config = default_config();
  config.total_requests = 600'000;
  config.fault_profile = profile;
  return config;
}

struct Headline {
  analysis::TrafficStats traffic;
  analysis::CoverageReport coverage;
  std::uint64_t failovers = 0;
  std::uint64_t sg47_requests = 0;
  std::uint64_t total_requests = 0;
};

Headline measure(const char* profile) {
  core::Study study{fault_config(profile)};
  study.run();
  Headline h;
  h.traffic = analysis::traffic_stats(study.datasets().full);
  h.coverage = analysis::request_coverage(study.datasets().full);
  h.failovers = study.scenario().farm().failover_total();
  h.sg47_requests = h.coverage.totals[kSg47];
  h.total_requests = h.coverage.total_requests;
  return h;
}

std::string share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? "-" : percent(double(part) / double(whole));
}

void print_reproduction() {
  print_banner("Fault injection — sg47-outage vs. healthy baseline",
               "fault layer is strictly opt-in: profile `none` leaves the "
               "emitted log byte-identical, `sg47-outage` degrades SG-47 "
               "and reroutes its users deterministically");
  const Headline base = measure("none");
  const Headline faulted = measure("sg47-outage");

  TextTable table{{"Metric", "baseline (none)", "sg47-outage"}};
  table.add_row({"requests", with_commas(base.total_requests),
                 with_commas(faulted.total_requests)});
  table.add_row({"censored share",
                 percent(base.traffic.share(base.traffic.censored())),
                 percent(faulted.traffic.share(faulted.traffic.censored()))});
  table.add_row({"error share",
                 percent(base.traffic.share(base.traffic.errors())),
                 percent(faulted.traffic.share(faulted.traffic.errors()))});
  table.add_row({"SG-47 request share",
                 share(base.sg47_requests, base.total_requests),
                 share(faulted.sg47_requests, faulted.total_requests)});
  table.add_row({"SG-47 coverage of active hours",
                 percent(base.coverage.coverage_share(kSg47)),
                 percent(faulted.coverage.coverage_share(kSg47))});
  table.add_row({"coverage gaps", std::to_string(base.coverage.gaps.size()),
                 std::to_string(faulted.coverage.gaps.size())});
  table.add_row({"failovers", with_commas(base.failovers),
                 with_commas(faulted.failovers)});
  print_block("Headline metrics (600k requests, seed "
              "defaults, 1h coverage bins)",
              table);

  if (!faulted.coverage.gaps.empty()) {
    TextTable gaps{{"Proxy", "Gap start", "Gap end", "Farm reqs"}};
    for (const auto& gap : faulted.coverage.gaps) {
      gaps.add_row({policy::proxy_name(gap.proxy_index),
                    util::format_datetime(gap.start),
                    util::format_datetime(gap.end),
                    with_commas(gap.farm_requests)});
    }
    print_block("sg47-outage coverage gaps", gaps);
  }
}

// Faulted end-to-end pipeline: generation + routing with failover checks
// engaged. Range 0 runs the same pipeline under the `none` profile: the
// healthy-path cost to compare against.
void BM_FaultedPipeline(benchmark::State& state) {
  const auto config = fault_config(state.range(0) == 0 ? "none"
                                                       : "sg47-outage");
  for (auto _ : state) {
    core::Study study{config};
    study.run();
    benchmark::DoNotOptimize(study.datasets().full.rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_requests));
}
BENCHMARK(BM_FaultedPipeline)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Lenient parse of a deliberately damaged log: corruption + recovery cost.
void BM_LenientReadCorrupted(benchmark::State& state) {
  auto config = fault_config("none");
  config.total_requests = 100'000;
  workload::SyriaScenario scenario{config};
  std::string text = proxy::log_csv_header();
  text += '\n';
  std::uint64_t rows = 0;
  scenario.run([&](const proxy::LogRecord& record) {
    ++rows;
    text += proxy::to_csv(record);
    text += '\n';
  });
  fault::LogCorruptor corruptor{{.seed = 7,
                                 .truncate_prob = 0.005,
                                 .garble_prob = 0.005,
                                 .drop_prob = 0.002,
                                 .drop_day_prefixes = {}}};
  const std::string damaged = corruptor.corrupt_log(text);
  for (auto _ : state) {
    std::istringstream in{damaged};
    const auto log = proxy::read_log_lenient(in);
    benchmark::DoNotOptimize(log.records.size() + log.stats.skipped_total());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_LenientReadCorrupted)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
