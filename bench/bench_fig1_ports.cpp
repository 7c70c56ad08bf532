// Fig. 1: destination-port distributions of allowed and censored traffic.

#include "analysis/port_dist.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Fig. 1 — destination ports, allowed vs censored",
               "Ports 80 and 443 carry most censored content; 9001 (Tor) "
               "ranks third among blocked connections");

  auto print_ports = [](const char* title, const analysis::LogSource& full) {
    const auto ports = analysis::port_distribution(full, 10);
    std::uint64_t allowed_total = 0, censored_total = 0;
    for (const auto& entry : analysis::port_distribution(full)) {
      allowed_total += entry.allowed;
      censored_total += entry.censored;
    }
    TextTable table{{"Port", "Allowed", "Allowed %", "Censored",
                     "Censored %"}};
    for (const auto& entry : ports) {
      table.add_row({std::to_string(entry.port), with_commas(entry.allowed),
                     percent(double(entry.allowed) /
                             std::max<std::uint64_t>(allowed_total, 1)),
                     with_commas(entry.censored),
                     percent(double(entry.censored) /
                             std::max<std::uint64_t>(censored_total, 1))});
    }
    print_block(title, table);
  };

  print_ports("Port distribution (default scale)",
              default_study().datasets().full);
  print_ports("Port distribution (Tor boosted — shows 9001's rank)",
              boosted_study().datasets().full);
}

void BM_PortDistribution(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::port_distribution(full));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_PortDistribution)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
