#include "analysis/domain_dist.h"

#include <vector>

#include "util/histogram.h"
#include "util/stats.h"

namespace syrwatch::analysis {

DomainDistribution domain_distribution(const LogSource& source,
                                       proxy::TrafficClass cls,
                                       std::size_t threads) {
  const auto partials = scan_partials<IdCounts>(
      source, threads, [&](IdCounts& p, const Record& r) {
        if (r.cls != cls) return;
        p.add(r.domain_id);
      });

  // Everything downstream (frequency-of-frequencies, the regression) only
  // sees the per-domain totals, never which id holds which.
  std::vector<std::uint64_t> per_domain(source.store().domain_count());
  for (const IdCounts& p : partials)
    p.for_each([&](std::uint32_t id, std::uint32_t count) {
      per_domain[id] += count;
    });

  std::vector<std::uint64_t> counts;
  DomainDistribution dist;
  for (const std::uint64_t count : per_domain) {
    if (count == 0) continue;
    counts.push_back(count);
    dist.max_requests = std::max(dist.max_requests, count);
  }
  dist.unique_domains = counts.size();
  dist.domains_by_request_count = util::frequency_of_frequencies(counts);

  // Fig. 2 plots #requests (y) against #domains receiving that many (x);
  // the slope of that relation on log-log axes characterizes the power law.
  std::vector<double> xs, ys;
  for (const auto& [request_count, domain_count] :
       dist.domains_by_request_count) {
    xs.push_back(static_cast<double>(domain_count));
    ys.push_back(static_cast<double>(request_count));
  }
  dist.loglog_slope = util::loglog_slope(xs, ys);
  return dist;
}

}  // namespace syrwatch::analysis
