#include "analysis/coverage.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/simtime.h"

namespace syrwatch::analysis {

namespace {

CoverageReport coverage_core(const LogSource& source, std::int64_t bin_seconds,
                             std::uint64_t min_farm_bin_requests,
                             bool truncated_tail, std::size_t threads) {
  CoverageReport report;
  report.bin_seconds = bin_seconds;
  report.truncated_tail = truncated_tail;
  if (source.rows() == 0) return report;

  // The observation window is the source's true time bounds (the scan
  // layer computes them even for emission-order containers, which are
  // only approximately time-sorted). Bins are anchored at the earliest
  // record's midnight so bin and day boundaries line up; every tally
  // below is order-independent, so any row order bins identically.
  const auto [first, last] = source.time_bounds();
  const std::int64_t origin = first - (first % util::kSecondsPerDay);
  const auto bin_count =
      static_cast<std::size_t>((last - origin) / bin_seconds + 1);

  struct Partial {
    std::vector<std::array<std::uint64_t, policy::kProxyCount>> bins;
    std::map<std::int64_t, std::array<std::uint64_t, policy::kProxyCount>>
        days;
    std::array<std::uint64_t, policy::kProxyCount> totals{};
    std::uint64_t total_requests = 0;
    bool has_rows = false;
  };
  const auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        if (!p.has_rows) {
          p.has_rows = true;
          p.bins.resize(bin_count);
        }
        const auto bin =
            static_cast<std::size_t>((r.time - origin) / bin_seconds);
        ++p.bins[bin][r.proxy_index];
        const std::int64_t day_start =
            r.time - (r.time % util::kSecondsPerDay);
        ++p.days[day_start][r.proxy_index];
        ++p.totals[r.proxy_index];
        ++p.total_requests;
      });

  std::vector<std::array<std::uint64_t, policy::kProxyCount>> bins(
      bin_count, std::array<std::uint64_t, policy::kProxyCount>{});
  std::map<std::int64_t, std::array<std::uint64_t, policy::kProxyCount>> days;
  for (const Partial& p : partials) {
    if (!p.has_rows) continue;
    for (std::size_t b = 0; b < bin_count; ++b)
      for (std::size_t proxy = 0; proxy < policy::kProxyCount; ++proxy)
        bins[b][proxy] += p.bins[b][proxy];
    for (const auto& [day_start, counts] : p.days) {
      auto& merged = days[day_start];
      for (std::size_t proxy = 0; proxy < policy::kProxyCount; ++proxy)
        merged[proxy] += counts[proxy];
    }
    for (std::size_t proxy = 0; proxy < policy::kProxyCount; ++proxy)
      report.totals[proxy] += p.totals[proxy];
    report.total_requests += p.total_requests;
  }
  report.days.reserve(days.size());
  for (const auto& [day_start, counts] : days)
    report.days.push_back({day_start, counts});

  // Gap scan: per proxy, merge consecutive farm-active bins it missed.
  std::array<bool, policy::kProxyCount> in_gap{};
  std::array<CoverageGap, policy::kProxyCount> open{};
  for (std::size_t b = 0; b < bin_count; ++b) {
    std::uint64_t farm_total = 0;
    for (const std::uint64_t count : bins[b]) farm_total += count;
    const bool active = farm_total >= min_farm_bin_requests;
    if (active) ++report.active_bins;
    const std::int64_t bin_start =
        origin + static_cast<std::int64_t>(b) * bin_seconds;
    for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
      if (active && bins[b][p] > 0) ++report.covered_bins[p];
      const bool hole = active && bins[b][p] == 0;
      if (hole) {
        if (!in_gap[p]) {
          in_gap[p] = true;
          open[p] = {static_cast<std::uint8_t>(p), bin_start, 0, 0};
        }
        open[p].end = bin_start + bin_seconds;
        open[p].farm_requests += farm_total;
      } else if (in_gap[p] && active) {
        // Only a bin the proxy demonstrably served closes its gap;
        // inactive bins (nothing to miss) leave the gap open.
        in_gap[p] = false;
        report.gaps.push_back(open[p]);
      }
    }
  }
  for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
    if (in_gap[p]) report.gaps.push_back(open[p]);
  }
  std::sort(report.gaps.begin(), report.gaps.end(),
            [](const CoverageGap& a, const CoverageGap& b) {
              if (a.proxy_index != b.proxy_index)
                return a.proxy_index < b.proxy_index;
              return a.start < b.start;
            });
  return report;
}

}  // namespace

CoverageReport request_coverage(const LogSource& source,
                                const CoverageOptions& options,
                                std::size_t threads) {
  if (options.bin.seconds <= 0)
    throw std::invalid_argument("request_coverage: bin width must be positive");
  const bool torn =
      (options.read_stats != nullptr && options.read_stats->truncated_tail) ||
      (options.recovery != nullptr && options.recovery->truncated_tail);
  return coverage_core(source, options.bin.seconds,
                       options.min_farm_bin_requests, torn, threads);
}

}  // namespace syrwatch::analysis
