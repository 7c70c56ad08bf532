#include "analysis/top_domains.h"

#include <algorithm>

#include "util/strings.h"

namespace syrwatch::analysis {

std::vector<DomainCount> top_domains(const LogSource& source,
                                     const TopDomainsOptions& options,
                                     std::size_t threads) {
  const auto& window = options.window;
  const auto partials = scan_partials<IdCounts>(
      source, threads, [&](IdCounts& p, const Record& r) {
        if (window && !window->contains(r.time)) return;
        if (r.cls != options.cls) return;
        p.add(r.domain_id);
      });

  // Ids key the counts and only the top k become text. The ranking is a
  // total order on (count, domain text), so neither the id values nor the
  // tables' order can show through.
  const ColumnStore& store = source.store();
  std::vector<std::uint64_t> totals(store.domain_count());
  std::uint64_t class_total = 0;
  for (const IdCounts& p : partials)
    p.for_each([&](std::uint32_t id, std::uint32_t count) {
      totals[id] += count;
      class_total += count;
    });
  std::vector<std::uint32_t> ranked;
  for (std::uint32_t id = 0; id < totals.size(); ++id)
    if (totals[id] != 0) ranked.push_back(id);
  const std::size_t k = std::min(options.k, ranked.size());
  const auto head = ranked.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(ranked.begin(), head, ranked.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      if (totals[a] != totals[b]) return totals[a] > totals[b];
                      return store.domain(a) < store.domain(b);
                    });
  std::vector<DomainCount> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t count = totals[ranked[i]];
    out.push_back({std::string(store.domain(ranked[i])), count,
                   static_cast<double>(count) /
                       static_cast<double>(class_total)});
  }
  return out;
}

std::vector<DomainClassCounts> domain_class_counts(
    const LogSource& source, std::span<const std::string> domains,
    std::size_t threads) {
  // The entries each distinct host matches, decided once per host rather
  // than per row; a host may match several (".il" and "panet.co.il").
  const auto per_slot = per_host_slot<std::vector<std::uint32_t>>(
      source, threads, [&](const ColumnStore::HostInfo& host) {
        std::vector<std::uint32_t> entries;
        for (std::uint32_t e = 0; e < domains.size(); ++e)
          if (util::host_matches_domain(host.name, domains[e]))
            entries.push_back(e);
        return entries;
      });
  // Flattened: slot s matches matched[first[s]] .. matched[first[s+1] - 1].
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> matched;
  first.reserve(per_slot.size() + 1);
  for (const std::vector<std::uint32_t>& entries : per_slot) {
    first.push_back(static_cast<std::uint32_t>(matched.size()));
    matched.insert(matched.end(), entries.begin(), entries.end());
  }
  first.push_back(static_cast<std::uint32_t>(matched.size()));

  // Fixed input order in, fixed order out: each partial is the same dense
  // array, and addition folds it.
  struct Counts {
    std::uint64_t censored = 0, allowed = 0, proxied = 0;
  };
  using Partial = std::vector<Counts>;
  const auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        const std::uint32_t end = first[r.host_slot + 1];
        for (std::uint32_t m = first[r.host_slot]; m < end; ++m) {
          if (p.empty()) p.resize(domains.size());
          Counts& entry = p[matched[m]];
          switch (r.cls) {
            case proxy::TrafficClass::kCensored: ++entry.censored; break;
            case proxy::TrafficClass::kAllowed: ++entry.allowed; break;
            case proxy::TrafficClass::kProxied: ++entry.proxied; break;
            case proxy::TrafficClass::kError: break;
          }
        }
      });
  std::vector<DomainClassCounts> out;
  out.reserve(domains.size());
  for (const std::string& domain : domains) out.push_back({domain, 0, 0, 0});
  for (const Partial& p : partials) {
    if (p.empty()) continue;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].censored += p[i].censored;
      out[i].allowed += p[i].allowed;
      out[i].proxied += p[i].proxied;
    }
  }
  return out;
}

}  // namespace syrwatch::analysis
