// Table 3: sc-filter-result / x-exception-id breakdown across datasets.

#include "analysis/traffic_stats.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

struct PaperShare {
  proxy::ExceptionId id;
  const char* full;
};
constexpr PaperShare kPaperShares[] = {
    {proxy::ExceptionId::kTcpError, "2.86%"},
    {proxy::ExceptionId::kInternalError, "1.96%"},
    {proxy::ExceptionId::kInvalidRequest, "0.36%"},
    {proxy::ExceptionId::kUnsupportedProtocol, "0.10%"},
    {proxy::ExceptionId::kDnsUnresolvedHostname, "0.02%"},
    {proxy::ExceptionId::kDnsServerFailure, "0.01%"},
    {proxy::ExceptionId::kPolicyDenied, "0.98%"},
    {proxy::ExceptionId::kPolicyRedirect, "0.00%"},
};

void print_one(const char* name, const analysis::LogSource& dataset) {
  const auto stats = analysis::traffic_stats(dataset);
  TextTable table{{"Class", "# Requests", "Measured %", "Paper % (Dfull)"}};
  table.add_row({"OBSERVED (allowed)", with_commas(stats.observed),
                 percent(stats.share(stats.observed)), "93.25%"});
  table.add_row({"PROXIED", with_commas(stats.proxied),
                 percent(stats.share(stats.proxied)), "0.47%"});
  table.add_row({"DENIED", with_commas(stats.denied),
                 percent(stats.share(stats.denied)), "6.28%"});
  for (const auto& row : kPaperShares) {
    table.add_row({"  " + std::string(proxy::to_string(row.id)),
                   with_commas(stats.at(row.id)),
                   percent(stats.share(stats.at(row.id))), row.full});
  }
  table.add_row({"Censored (policy)", with_commas(stats.censored()),
                 percent(stats.share(stats.censored())), "0.98%"});
  print_block(std::string("Traffic classes — ") + name, table);
}

void print_reproduction() {
  print_banner("Table 3 — decision/exception statistics",
               "93.25% allowed, 0.47% proxied, 6.28% denied of which "
               "15.5+% is policy censorship");
  const auto& datasets = default_study().datasets();
  print_one("Dfull", datasets.full);
  print_one("Dsample", datasets.sample);
  print_one("Duser", datasets.user);

  // Within-Ddenied composition, as the paper's last column.
  const auto denied = analysis::traffic_stats(datasets.denied);
  TextTable table{{"Exception", "Share of Ddenied", "Paper"}};
  const double total = static_cast<double>(denied.total);
  auto share_of = [&](proxy::ExceptionId id) {
    return percent(denied.at(id) / total);
  };
  table.add_row({"tcp_error", share_of(proxy::ExceptionId::kTcpError),
                 "45.30%"});
  table.add_row({"internal_error",
                 share_of(proxy::ExceptionId::kInternalError), "31.02%"});
  table.add_row({"invalid_request",
                 share_of(proxy::ExceptionId::kInvalidRequest), "5.62%"});
  table.add_row({"policy_denied",
                 share_of(proxy::ExceptionId::kPolicyDenied), "15.54%"});
  print_block("Composition of Ddenied", table);
}

void BM_TrafficStats(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::traffic_stats(full).censored());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_TrafficStats)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
