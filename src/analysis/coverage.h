#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/options.h"
#include "analysis/scan.h"
#include "colfmt/container.h"
#include "policy/syria.h"
#include "proxy/log_io.h"

namespace syrwatch::analysis {

/// A contiguous window in which one proxy logged nothing while the rest of
/// the farm was demonstrably active — an outage, a lost day-file, or the
/// leak's own shape (July days keep only SG-42).
struct CoverageGap {
  std::uint8_t proxy_index = 0;
  std::int64_t start = 0;  // [start, end)
  std::int64_t end = 0;
  /// Requests the rest of the farm logged inside the gap — how much signal
  /// the missing proxy's absence actually costs.
  std::uint64_t farm_requests = 0;
};

/// Per-proxy/per-day request counts of one civil day.
struct DayCoverage {
  std::int64_t day_start = 0;  // midnight UTC
  std::array<std::uint64_t, policy::kProxyCount> requests{};
};

/// Per-proxy/per-day coverage of a log: which appliances were heard from
/// when, and where the holes are. The paper works from exactly this kind
/// of uneven coverage (Table 1, Figs. 5/7); analyses that assume a whole
/// farm should consult degraded() before trusting per-proxy comparisons.
struct CoverageReport {
  std::int64_t bin_seconds = 3600;
  std::vector<DayCoverage> days;  // ascending by day_start
  std::array<std::uint64_t, policy::kProxyCount> totals{};
  std::uint64_t total_requests = 0;
  std::vector<CoverageGap> gaps;  // ascending by (proxy, start)

  /// The source log ended mid-record (LogReadStats::truncated_tail): the
  /// observation window's trailing edge is an artifact boundary, not a
  /// traffic boundary, so end-of-window analyses undercount. Set when the
  /// caller forwards its read stats to request_coverage.
  bool truncated_tail = false;

  bool degraded() const noexcept { return !gaps.empty() || truncated_tail; }

  /// Fraction of farm-active bins in which the proxy logged traffic.
  double coverage_share(std::size_t proxy_index) const noexcept {
    return active_bins == 0 ? 1.0
                            : static_cast<double>(covered_bins[proxy_index]) /
                                  static_cast<double>(active_bins);
  }

  std::uint64_t active_bins = 0;  // bins where the farm cleared the floor
  std::array<std::uint64_t, policy::kProxyCount> covered_bins{};
};

/// Computes coverage by binning requests into CoverageOptions::bin
/// windows. A bin counts as farm-active when the whole farm logged at
/// least `min_farm_bin_requests` in it (the floor suppresses phantom gaps
/// in near-idle windows); a proxy silent through one or more consecutive
/// active bins contributes a CoverageGap. Pass the LogReadStats /
/// RecoveryStats of the lenient load that produced the source (when there
/// was one) so a torn final record — a partially written artifact — is
/// surfaced as a coverage degradation rather than silently shortening the
/// window. Row order is irrelevant: the window is the source's true time
/// bounds and every tally is order-independent, so any record order bins
/// identically. A non-positive bin width throws std::invalid_argument.
CoverageReport request_coverage(const LogSource& source,
                                const CoverageOptions& options = {},
                                std::size_t threads = 1);

}  // namespace syrwatch::analysis
