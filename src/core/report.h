#pragma once

#include <cstddef>
#include <string>

#include "analysis/scan.h"
#include "core/study.h"
#include "geo/geoip.h"
#include "tor/relay_directory.h"
#include "workload/torrents.h"

namespace syrwatch::core {

/// Inputs for the source-based report renderers: the paper's four datasets
/// as scan-layer sources (analysis::LogSource — row Dataset or SYRCOL1
/// container, both render identically) plus the scenario resources some
/// analyzers consult. The sources and resources must outlive the render
/// call; `threads` fans each analyzer's scan out (the rendered bytes are
/// identical for any value), and a non-null `obs` records one
/// analysis.<name> stage span per report block.
struct ReportSources {
  analysis::LogSource full, sample, user, denied;
  const geo::GeoIpDb* geoip = nullptr;
  const tor::RelayDirectory* relays = nullptr;
  const workload::TorrentRegistry* torrents = nullptr;
  std::size_t threads = 1;
  obs::Context* obs = nullptr;
};

/// Renders the headline statistical overview (dataset sizes, Table 3
/// breakdown, top domains) as monospace text — the quick-look report used
/// by the audit example and `syrwatchctl report`.
std::string render_overview(const ReportSources& sources);

/// Renders every reproduced table/figure summary in paper order. Heavier
/// than render_overview (runs string discovery, Tor matching, etc.).
std::string render_full_report(const ReportSources& sources);

/// Study-backed wrappers: same bytes as rendering the study's derived
/// views through the source API, plus the coverage/failover blocks when
/// the scenario carried a fault schedule.
std::string render_overview(const Study& study);
std::string render_full_report(const Study& study);

}  // namespace syrwatch::core
