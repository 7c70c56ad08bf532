// §4's HTTPS analysis: volume, censorship, IP-based blocking, and the
// TLS-interception test — plus the what-if where interception is on.

#include "analysis/https_audit.h"
#include "analysis/osn.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_stats(const char* title, const analysis::HttpsStats& stats) {
  TextTable table{{"Metric", "Measured", "Paper"}};
  table.add_row({"HTTPS share of all traffic",
                 percent(stats.share_of_traffic()), "0.08%"});
  table.add_row({"Censored HTTPS share", percent(stats.censored_share()),
                 "0.82%"});
  table.add_row({"Censored HTTPS with IP destination",
                 percent(stats.censored_ip_share()), "82%"});
  table.add_row({"HTTPS records exposing cs-uri-path/-query",
                 with_commas(stats.with_uri_fields),
                 "0 (no MITM evidence)"});
  table.add_row({"Interception evidence",
                 stats.interception_evidence() ? "YES" : "none",
                 "none"});
  print_block(title, table);
}

void print_reproduction() {
  print_banner("Sec 4 — HTTPS traffic and the interception test",
               "HTTPS = 0.08% of traffic, 0.82% censored; 82% of censored "
               "HTTPS addresses an IP (Israeli AS or Anonymizer); no sign "
               "of TLS interception in the logs");

  print_stats("Deployment as leaked (no interception)",
              analysis::https_stats(default_study().datasets().full));

  // What-if: the same deployment with Blue Coat's TLS interception turned
  // on — the capability the paper notes the appliances support.
  auto mitm_config = default_config();
  mitm_config.total_requests = 600'000;
  mitm_config.proxy_config.intercept_https = true;
  mitm_config.share_boosts = {{"https-connect", 40.0}};
  auto& mitm = study_for(mitm_config);
  print_stats("What-if: interception enabled (HTTPS boosted x40)",
              analysis::https_stats(mitm.datasets().full));

  // With interception, page-level censorship reaches HTTPS Facebook.
  const auto pages = analysis::blocked_facebook_pages(mitm.datasets().full);
  std::uint64_t https_page_hits = 0;
  analysis::scan_increment(
      mitm.datasets().full, 0, [&](const analysis::Record& r) {
        if (r.scheme == net::Scheme::kHttps &&
            r.exception == proxy::ExceptionId::kPolicyRedirect)
          ++https_page_hits;
      });
  TextTable table{{"Metric", "Value"}};
  table.add_row({"Blocked-page redirects on HTTPS tunnels",
                 with_commas(https_page_hits)});
  table.add_row({"Distinct blocked pages observed",
                 std::to_string(pages.size())});
  print_block("Interception consequence: HTTPS Facebook pages become "
              "censorable (impossible in the leaked deployment)",
              table);
}

void BM_HttpsStats(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::https_stats(full));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_HttpsStats)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
