#include "core/report.h"

#include <array>
#include <functional>
#include <string_view>

#include "analysis/anonymizer.h"
#include "analysis/bittorrent.h"
#include "analysis/category_dist.h"
#include "analysis/coverage.h"
#include "analysis/domain_dist.h"
#include "analysis/google_cache.h"
#include "analysis/https_audit.h"
#include "analysis/sampling.h"
#include "analysis/ip_censorship.h"
#include "analysis/osn.h"
#include "analysis/port_dist.h"
#include "analysis/redirects.h"
#include "analysis/social_plugins.h"
#include "analysis/string_discovery.h"
#include "analysis/tor_analysis.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "geo/world.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/simtime.h"
#include "util/strings.h"
#include "util/table.h"

namespace syrwatch::core {

namespace {

using util::percent;
using util::TextTable;
using util::titled_block;
using util::with_commas;

/// Suffix appended to the titles of tables computed from a log the fault
/// layer degraded; empty (no output change at all) for healthy runs.
std::string degraded_mark(bool degraded) {
  return degraded ? " [DEGRADED DATA — see coverage]" : "";
}

std::string dataset_sizes(const ReportSources& s, bool degraded) {
  TextTable table{{"Dataset", "# Requests"}};
  table.add_row({"Full", with_commas(s.full.rows())});
  table.add_row({"Sample (4%)", with_commas(s.sample.rows())});
  table.add_row({"User", with_commas(s.user.rows())});
  table.add_row({"Denied", with_commas(s.denied.rows())});
  return titled_block("Datasets (Table 1)" + degraded_mark(degraded), table);
}

std::string traffic_breakdown(const analysis::LogSource& full,
                              std::size_t threads, bool degraded) {
  const auto stats = analysis::traffic_stats(full, threads);
  TextTable table{{"Class", "# Requests", "%"}};
  table.add_row({"Allowed (OBSERVED)", with_commas(stats.observed),
                 percent(stats.share(stats.observed))});
  table.add_row({"Proxied", with_commas(stats.proxied),
                 percent(stats.share(stats.proxied))});
  table.add_row({"Denied", with_commas(stats.denied),
                 percent(stats.share(stats.denied))});
  for (std::size_t i = 1; i < proxy::kExceptionCount; ++i) {
    const auto id = static_cast<proxy::ExceptionId>(i);
    table.add_row({"  " + std::string(proxy::to_string(id)),
                   with_commas(stats.at(id)), percent(stats.share(stats.at(id)))});
  }
  table.add_row({"Censored (policy)", with_commas(stats.censored()),
                 percent(stats.share(stats.censored()))});
  return titled_block("Traffic classes (Table 3, Dfull)" +
                          degraded_mark(degraded),
                      table);
}

std::string top_domain_tables(const analysis::LogSource& full,
                              std::size_t threads, bool degraded) {
  std::string out;
  for (const auto cls :
       {proxy::TrafficClass::kAllowed, proxy::TrafficClass::kCensored}) {
    const auto top = analysis::top_domains(
        full, analysis::TopDomainsOptions{cls}, threads);
    TextTable table{{"Domain", "# Requests", "%"}};
    for (const auto& entry : top)
      table.add_row({entry.domain, with_commas(entry.count),
                     percent(entry.share)});
    out += titled_block(std::string("Top-10 ") +
                            std::string(proxy::to_string(cls)) +
                            " domains (Table 4)" + degraded_mark(degraded),
                        table);
  }
  return out;
}

/// Coverage table + gap/failover warnings, rendered only for studies whose
/// scenario carries a non-empty fault schedule: healthy runs keep their
/// pre-fault-layer report bytes.
std::string coverage_block(const Study& study,
                           const analysis::CoverageReport& coverage) {
  std::vector<std::string> header{"Day"};
  for (std::size_t p = 0; p < policy::kProxyCount; ++p)
    header.push_back(policy::proxy_name(p));
  TextTable table{header};
  for (const auto& day : coverage.days) {
    std::vector<std::string> row{util::format_date(day.day_start)};
    for (const std::uint64_t count : day.requests)
      row.push_back(with_commas(count));
    table.add_row(row);
  }
  std::string out =
      titled_block("Per-proxy/per-day coverage (fault injection)", table);

  TextTable gaps{{"Proxy", "Gap start", "Gap end", "Farm reqs in gap"}};
  for (const auto& gap : coverage.gaps) {
    gaps.add_row({policy::proxy_name(gap.proxy_index),
                  util::format_datetime(gap.start),
                  util::format_datetime(gap.end),
                  with_commas(gap.farm_requests)});
  }
  if (!coverage.gaps.empty())
    out += titled_block("DEGRADED DATA — coverage gaps", gaps);

  const auto& farm = study.scenario().farm();
  if (farm.failover_total() > 0) {
    TextTable failovers{{"Failover target", "# Redirected requests"}};
    for (std::size_t p = 0; p < farm.proxy_count(); ++p) {
      if (farm.failovers_to(p) == 0) continue;
      failovers.add_row(
          {policy::proxy_name(p), with_commas(farm.failovers_to(p))});
    }
    out += titled_block("Failover routing (" +
                            with_commas(farm.failover_total()) +
                            " requests diverted)",
                        failovers);
  }
  return out;
}

std::string ports_block(const analysis::LogSource& full,
                        std::size_t threads) {
  const auto ports = analysis::port_distribution(full, 8, threads);
  TextTable table{{"Port", "Allowed", "Censored"}};
  for (const auto& entry : ports)
    table.add_row({std::to_string(entry.port), with_commas(entry.allowed),
                   with_commas(entry.censored)});
  return titled_block("Destination ports (Fig. 1)", table);
}

std::string discovery_block(const analysis::DiscoveryResult& discovery) {
  TextTable table{{"Keyword", "Censored", "Proxied"}};
  for (const auto& kw : discovery.keywords)
    table.add_row({kw.text, with_commas(kw.censored),
                   with_commas(kw.proxied)});
  std::string out = titled_block("Censored keywords (Table 10)", table);

  TextTable domains{{"Domain", "Censored", "Proxied"}};
  for (std::size_t i = 0; i < discovery.domains.size() && i < 10; ++i)
    domains.add_row({discovery.domains[i].text,
                     with_commas(discovery.domains[i].censored),
                     with_commas(discovery.domains[i].proxied)});
  out += titled_block("Top suspected domains (Table 8, of " +
                          std::to_string(discovery.domains.size()) +
                          " discovered)",
                      domains);
  return out;
}

std::string countries_block(const analysis::LogSource& full,
                            const geo::GeoIpDb& geoip, std::size_t threads) {
  const auto countries = analysis::country_censorship(full, geoip, threads);
  TextTable table{{"Country", "Ratio (%)", "# Censored", "# Allowed"}};
  for (const auto& entry : countries)
    table.add_row({entry.country, percent(entry.ratio()),
                   with_commas(entry.censored), with_commas(entry.allowed)});
  return titled_block("Censorship ratio by country (Table 11)", table);
}

std::string osn_block(const analysis::LogSource& full, std::size_t threads) {
  const auto osns = analysis::osn_censorship(full, threads);
  TextTable table{{"OSN", "Censored", "Allowed", "Proxied"}};
  for (std::size_t i = 0; i < osns.size() && i < 10; ++i)
    table.add_row({osns[i].domain, with_commas(osns[i].censored),
                   with_commas(osns[i].allowed),
                   with_commas(osns[i].proxied)});
  std::string out = titled_block("Social networks (Table 13)", table);

  const auto pages = analysis::blocked_facebook_pages(full, threads);
  TextTable pages_table{{"Facebook page", "Censored", "Allowed", "Proxied"}};
  for (const auto& page : pages)
    pages_table.add_row({page.page, with_commas(page.censored),
                         with_commas(page.allowed),
                         with_commas(page.proxied)});
  out += titled_block("Blocked Facebook pages (Table 14)", pages_table);
  return out;
}

std::string tor_block(const analysis::LogSource& full,
                      const tor::RelayDirectory& relays,
                      std::size_t threads) {
  const auto tor = analysis::tor_stats(full, relays, threads);
  TextTable table{{"Metric", "Value"}};
  table.add_row({"Tor requests", with_commas(tor.requests)});
  table.add_row({"Unique relays", with_commas(tor.unique_relays)});
  table.add_row({"Torhttp share",
                 percent(tor.requests == 0
                             ? 0.0
                             : static_cast<double>(tor.http_requests) /
                                   static_cast<double>(tor.requests))});
  table.add_row({"Censored",
                 percent(tor.requests == 0
                             ? 0.0
                             : static_cast<double>(tor.censored) /
                                   static_cast<double>(tor.requests))});
  table.add_row({"TCP errors",
                 percent(tor.requests == 0
                             ? 0.0
                             : static_cast<double>(tor.tcp_errors) /
                                   static_cast<double>(tor.requests))});
  return titled_block("Tor traffic (Sec. 7.1)", table);
}

std::string bittorrent_block(const analysis::LogSource& full,
                             const workload::TorrentRegistry& torrents,
                             std::size_t threads) {
  const auto bt = analysis::bittorrent_stats(full, torrents, threads);
  TextTable table{{"Metric", "Value"}};
  table.add_row({"Announces", with_commas(bt.announces)});
  table.add_row({"Unique peers", with_commas(bt.unique_peers)});
  table.add_row({"Unique contents", with_commas(bt.unique_contents)});
  table.add_row({"Allowed share",
                 percent(bt.announces == 0
                             ? 0.0
                             : static_cast<double>(bt.allowed) /
                                   static_cast<double>(bt.announces))});
  return titled_block("BitTorrent (Sec. 7.3)", table);
}

std::string google_cache_block(const analysis::LogSource& full,
                               const analysis::DiscoveryResult& discovery,
                               std::size_t threads) {
  const auto cache =
      analysis::google_cache_stats(full, discovery.domain_names(), threads);
  TextTable table{{"Metric", "Value"}};
  table.add_row({"Cache requests", with_commas(cache.requests)});
  table.add_row({"Censored", with_commas(cache.censored)});
  table.add_row({"Censored sites served via cache",
                 std::to_string(cache.censored_sites_served.size())});
  return titled_block("Google cache (Sec. 7.4)", table);
}

std::string https_block(const analysis::LogSource& full,
                        std::size_t threads) {
  const auto https = analysis::https_stats(full, threads);
  TextTable table{{"Metric", "Value"}};
  table.add_row({"HTTPS share of traffic",
                 percent(https.share_of_traffic())});
  table.add_row({"Censored HTTPS", percent(https.censored_share())});
  table.add_row({"Censored HTTPS with IP destination",
                 percent(https.censored_ip_share())});
  table.add_row({"TLS interception evidence",
                 https.interception_evidence() ? "YES" : "none"});
  return titled_block("HTTPS traffic (Sec. 4)", table);
}

std::string sampling_block(const analysis::LogSource& full,
                           const analysis::LogSource& sample,
                           std::size_t threads) {
  const auto checks = analysis::sampling_audit(full, sample, 0.05, threads);
  TextTable table{{"Metric", "Dfull", "Dsample", "95% CI covers Dfull"}};
  for (const auto& check : checks) {
    table.add_row({check.metric, percent(check.full_proportion),
                   percent(check.sample_proportion),
                   check.covered ? "yes" : "NO"});
  }
  return titled_block("Dsample accuracy audit (Sec. 3.3)", table);
}

/// One report block with the stage name its wall time is recorded under
/// (when the sources carry an obs::Context).
struct NamedBlock {
  std::string_view stage;
  std::function<std::string()> render;
};

/// The overview's three blocks. `block_threads` parallelizes across the
/// blocks themselves (the Study path — analyzers then scan at s.threads
/// each); the rendered bytes are the same for any combination.
std::string overview_blocks(const ReportSources& s, bool degraded,
                            std::size_t block_threads) {
  std::array<std::string, 3> blocks;
  const std::array<NamedBlock, 3> tasks{{
      {"analysis.dataset_sizes", [&] { return dataset_sizes(s, degraded); }},
      {"analysis.traffic_stats",
       [&] { return traffic_breakdown(s.full, s.threads, degraded); }},
      {"analysis.top_domains",
       [&] { return top_domain_tables(s.full, s.threads, degraded); }},
  }};
  util::parallel_for(tasks.size(), block_threads, [&](std::size_t i) {
    const obs::Span span{s.obs, tasks[i].stage};
    blocks[i] = tasks[i].render();
  });
  std::string out;
  for (const std::string& block : blocks) out += block;
  return out;
}

/// The full report's block set, in paper order. Requires s.geoip,
/// s.relays, and s.torrents.
std::string full_report_blocks(const ReportSources& s, bool degraded,
                               std::size_t block_threads) {
  // Every analyzer below only reads the (prepared) sources, so they fan
  // out on the pool; the one data dependency — Google cache consumes the
  // discovered-domain list — runs after the fan-out. Output order stays
  // the paper's order regardless of completion order.
  analysis::DiscoveryResult discovery;
  std::array<std::string, 11> blocks;
  const std::array<NamedBlock, 11> tasks{{
      {"analysis.dataset_sizes", [&] { return dataset_sizes(s, degraded); }},
      {"analysis.traffic_stats",
       [&] { return traffic_breakdown(s.full, s.threads, degraded); }},
      {"analysis.top_domains",
       [&] { return top_domain_tables(s.full, s.threads, degraded); }},
      {"analysis.ports", [&] { return ports_block(s.full, s.threads); }},
      {"analysis.string_discovery",
       [&] {
         discovery =
             analysis::discover_censored_strings(s.full, {}, s.threads);
         return discovery_block(discovery);
       }},
      {"analysis.countries",
       [&] { return countries_block(s.full, *s.geoip, s.threads); }},
      {"analysis.osn", [&] { return osn_block(s.full, s.threads); }},
      {"analysis.tor",
       [&] { return tor_block(s.full, *s.relays, s.threads); }},
      {"analysis.bittorrent",
       [&] { return bittorrent_block(s.full, *s.torrents, s.threads); }},
      {"analysis.https", [&] { return https_block(s.full, s.threads); }},
      {"analysis.sampling_audit",
       [&] { return sampling_block(s.full, s.sample, s.threads); }},
  }};
  util::parallel_for(tasks.size(), block_threads, [&](std::size_t i) {
    const obs::Span span{s.obs, tasks[i].stage};
    blocks[i] = tasks[i].render();
  });

  std::string out;
  for (std::size_t i = 0; i < 9; ++i) out += blocks[i];
  {
    const obs::Span span{s.obs, "analysis.google_cache"};
    out += google_cache_block(s.full, discovery, s.threads);
  }
  out += blocks[9];   // HTTPS (§4)
  out += blocks[10];  // sampling audit (§3.3)
  return out;
}

/// The Study wrappers' sources: the study's derived views plus the
/// scenario's resources, analyzers single-threaded (the wrappers
/// parallelize across blocks instead, as the pre-scan-layer report did).
ReportSources study_sources(const Study& study) {
  const auto& datasets = study.datasets();
  return ReportSources{datasets.full,
                       datasets.sample,
                       datasets.user,
                       datasets.denied,
                       &study.scenario().geoip(),
                       &study.scenario().relays(),
                       &study.scenario().torrents(),
                       /*threads=*/1,
                       study.obs_context()};
}

}  // namespace

std::string render_overview(const ReportSources& sources) {
  return overview_blocks(sources, /*degraded=*/false, /*block_threads=*/1);
}

std::string render_full_report(const ReportSources& sources) {
  return full_report_blocks(sources, /*degraded=*/false,
                            /*block_threads=*/1);
}

std::string render_overview(const Study& study) {
  obs::Context* ctx = study.obs_context();
  const std::size_t threads =
      util::resolve_threads(study.scenario().config().threads);
  const bool faulted = !study.scenario().faults().empty();
  analysis::CoverageReport coverage;
  if (faulted) {
    const obs::Span span{ctx, "analysis.coverage"};
    coverage = analysis::request_coverage(study.datasets().full);
  }
  const bool degraded = faulted && coverage.degraded();
  std::string out = overview_blocks(study_sources(study), degraded, threads);
  if (faulted) out += coverage_block(study, coverage);
  return out;
}

std::string render_full_report(const Study& study) {
  obs::Context* ctx = study.obs_context();
  const std::size_t threads =
      util::resolve_threads(study.scenario().config().threads);
  const bool faulted = !study.scenario().faults().empty();
  analysis::CoverageReport coverage;
  if (faulted) {
    const obs::Span span{ctx, "analysis.coverage"};
    coverage = analysis::request_coverage(study.datasets().full);
  }
  const bool degraded = faulted && coverage.degraded();
  std::string out;
  if (faulted) out += coverage_block(study, coverage);
  out += full_report_blocks(study_sources(study), degraded, threads);
  return out;
}

}  // namespace syrwatch::core
