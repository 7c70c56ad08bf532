// Leak replay: generate a day of filtered traffic, export it in the
// Blue Coat csv format the Telecomix leak used, read it back, and verify
// the analysis is unchanged — the round-trip path for working with
// on-disk logs instead of in-memory simulation.
//
// Usage: leak_replay [requests] [output.csv]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/dataset.h"
#include "analysis/traffic_stats.h"
#include "proxy/log_io.h"
#include "util/strings.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace syrwatch;

  workload::ScenarioConfig config;
  config.total_requests = 100'000;
  if (argc > 1) config.total_requests = std::strtoull(argv[1], nullptr, 10);
  const char* path = argc > 2 ? argv[2] : "syrwatch_leak.csv";

  std::printf("Generating and filtering %llu requests...\n",
              static_cast<unsigned long long>(config.total_requests));
  workload::SyriaScenario scenario{config};
  std::vector<proxy::LogRecord> records;
  scenario.run(
      [&](const proxy::LogRecord& record) { records.push_back(record); });

  std::printf("Writing %s records to %s ...\n",
              util::with_commas(records.size()).c_str(), path);
  {
    std::ofstream out{path};
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 1;
    }
    proxy::write_log(out, records);
  }

  std::printf("Reading the log back...\n");
  std::ifstream in{path};
  const auto replayed = proxy::read_log(in);

  analysis::Dataset original, reloaded;
  for (const auto& record : records) original.add(record);
  for (const auto& record : replayed) reloaded.add(record);

  const auto before = analysis::traffic_stats(original);
  const auto after = analysis::traffic_stats(reloaded);
  std::printf("\n%-22s %12s %12s\n", "Metric", "generated", "replayed");
  std::printf("%-22s %12s %12s\n", "records",
              util::with_commas(before.total).c_str(),
              util::with_commas(after.total).c_str());
  std::printf("%-22s %12s %12s\n", "censored",
              util::with_commas(before.censored()).c_str(),
              util::with_commas(after.censored()).c_str());
  std::printf("%-22s %12s %12s\n", "errors",
              util::with_commas(before.errors()).c_str(),
              util::with_commas(after.errors()).c_str());
  std::printf("%-22s %12s %12s\n", "proxied",
              util::with_commas(before.proxied).c_str(),
              util::with_commas(after.proxied).c_str());

  const bool identical = before.total == after.total &&
                         before.censored() == after.censored() &&
                         before.errors() == after.errors() &&
                         before.proxied == after.proxied;
  std::printf("\nRound trip %s.\n", identical ? "exact" : "DIVERGED");
  std::remove(path);
  return identical ? 0 : 1;
}
