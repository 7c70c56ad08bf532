// Extension: the December 2012 escalation. The paper's Remarks note that
// Syria reportedly started blocking Tor relays and bridges on
// Dec 16, 2012. This bench replays the Summer-2011 Tor workload under
// the escalated policy and quantifies the collapse: Torhttp (directory
// bootstrap) dies too, so the network becomes unreachable without
// bridges — the situation the Tor censorship wiki records.

#include "analysis/impact.h"
#include "analysis/tor_analysis.h"
#include "bench_common.h"
#include "policy/syria.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Extension — the December 2012 Tor blockade",
               "Remarks/§7.1: Tor was usable in Summer 2011 (1.38% "
               "censored, Torhttp untouched); relays and bridges were "
               "blocked from Dec 16, 2012 [23]",
               /*boosted=*/true);

  auto& study = boosted_study();
  const auto& full = study.datasets().full;
  const auto& relays = study.scenario().relays();

  const auto summer = analysis::tor_stats(full, relays);

  // Build the escalated policy and re-screen the logged traffic.
  policy::SyriaPolicy escalated =
      policy::build_syria_policy(relays, study.scenario().config().seed);
  const auto added = policy::apply_december_2012_update(escalated, relays);

  // Count Tor rows that the escalated SG-44-equivalent would censor.
  std::uint64_t tor_rows = 0, would_censor = 0, http_killed = 0;
  util::Rng rng{9};
  analysis::scan_increment(full, 0, [&](const analysis::Record& r) {
    if (!r.host_is_ip) return;
    const net::Ipv4Addr ip{r.host_ip};
    if (!relays.contains(ip, r.port)) return;
    if (r.cls != proxy::TrafficClass::kAllowed &&
        r.cls != proxy::TrafficClass::kCensored)
      return;
    ++tor_rows;
    net::Url url;
    url.scheme = r.scheme;
    url.host = std::string(r.host);
    url.port = r.port;
    url.path = std::string(r.path);
    policy::FilterRequest request;
    request.url = &url;
    request.dest_ip = ip;
    request.time = r.time;
    if (escalated.proxies[0].engine.evaluate(request, rng).censored()) {
      ++would_censor;
      if (tor::is_directory_path(url.path)) ++http_killed;
    }
  });

  TextTable table{{"Metric", "Summer 2011 (leak)", "Dec 2012 (escalated)"}};
  table.add_row({"Rules per proxy policy",
                 std::to_string(study.scenario()
                                    .policy()
                                    .proxies[0]
                                    .engine.rules()
                                    .size()),
                 std::to_string(escalated.proxies[0].engine.rules().size()) +
                     " (+" + std::to_string(added / policy::kProxyCount) +
                     ")"});
  table.add_row(
      {"Tor traffic censored",
       percent(summer.requests == 0
                   ? 0.0
                   : double(summer.censored) / double(summer.requests)),
       percent(tor_rows == 0 ? 0.0
                             : double(would_censor) / double(tor_rows))});
  table.add_row({"Censored Torhttp (directory bootstrap)",
                 with_commas(summer.censored_http),
                 with_commas(http_killed)});
  table.add_row({"Proxies enforcing", "SG-44 (+trace on SG-48)",
                 "all seven"});
  print_block("Tor before and after the escalation", table);

  std::printf("Under the Dec-2012 ruleset, %s of the Tor traffic the leak "
              "recorded would have been denied — including every directory "
              "fetch, so clients could not even bootstrap. Unlisted bridges "
              "become the only entry path, matching the Tor project's "
              "censorship-wiki entry for Syria.\n\n",
              percent(tor_rows == 0 ? 0.0
                                    : double(would_censor) /
                                          double(tor_rows))
                  .c_str());
}

void BM_EscalatedRescreen(benchmark::State& state) {
  auto& study = boosted_study();
  const auto& relays = study.scenario().relays();
  policy::SyriaPolicy escalated = policy::build_syria_policy(relays, 1);
  policy::apply_december_2012_update(escalated, relays);
  const auto impact = [&] {
    return analysis::policy_impact(study.datasets().full,
                                   escalated.proxies[0].engine,
                                   escalated.custom_categories, {.top_k = 5});
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(impact());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(study.datasets().full.rows()));
}
BENCHMARK(BM_EscalatedRescreen)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
