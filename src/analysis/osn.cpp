#include "analysis/osn.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"

namespace syrwatch::analysis {

const std::vector<std::string>& studied_social_networks() {
  // Top networks by 2013 Alexa rank plus the three Arabic-region ones the
  // paper adds (§6).
  static const std::vector<std::string> networks = {
      "facebook.com", "twitter.com",  "linkedin.com", "badoo.com",
      "netlog.com",   "hi5.com",      "skyrock.com",  "flickr.com",
      "ning.com",     "meetup.com",   "myspace.com",  "tumblr.com",
      "last.fm",      "salamworld.com", "muslimup.com",
  };
  return networks;
}

std::vector<DomainClassCounts> osn_censorship(const LogSource& source,
                                              std::size_t threads) {
  auto counts = domain_class_counts(source, studied_social_networks(), threads);
  std::sort(counts.begin(), counts.end(),
            [](const DomainClassCounts& a, const DomainClassCounts& b) {
              return a.censored > b.censored;
            });
  return counts;
}

std::vector<FacebookPage> blocked_facebook_pages(const LogSource& source,
                                                 std::size_t threads) {
  // The sequential version is two passes: label pages carrying the custom
  // category, then count every request to a labelled page. One scan collects
  // both (labels and counts for *all* candidate paths); the fold intersects.
  struct Counts {
    std::uint64_t censored = 0, allowed = 0, proxied = 0;
  };
  struct Partial {
    std::set<std::string> labeled;
    std::map<std::string, Counts> by_path;
  };
  const auto facebook = per_host_slot<std::uint8_t>(
      source, threads, [](const ColumnStore::HostInfo& host) {
        return static_cast<std::uint8_t>(
            util::host_matches_domain(host.name, "facebook.com"));
      });
  const auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        if (facebook[r.host_slot] == 0) return;
        if (r.path.size() >= 2 && r.path[0] == '/' &&
            util::contains(r.categories, "Blocked sites"))
          p.labeled.insert(std::string(r.path.substr(1)));
        if (r.path.size() < 2) return;
        Counts& counts = p.by_path[std::string(r.path.substr(1))];
        switch (r.cls) {
          case proxy::TrafficClass::kCensored: ++counts.censored; break;
          case proxy::TrafficClass::kAllowed: ++counts.allowed; break;
          case proxy::TrafficClass::kProxied: ++counts.proxied; break;
          case proxy::TrafficClass::kError: break;
        }
      });

  std::set<std::string> labeled;
  std::map<std::string, Counts> by_path;
  for (const Partial& p : partials) {
    labeled.insert(p.labeled.begin(), p.labeled.end());
    for (const auto& [path, counts] : p.by_path) {
      Counts& merged = by_path[path];
      merged.censored += counts.censored;
      merged.allowed += counts.allowed;
      merged.proxied += counts.proxied;
    }
  }

  std::vector<FacebookPage> out;
  out.reserve(labeled.size());
  for (const std::string& page : labeled) {
    FacebookPage entry;
    entry.page = page;
    const auto it = by_path.find(page);
    if (it != by_path.end()) {
      entry.censored = it->second.censored;
      entry.allowed = it->second.allowed;
      entry.proxied = it->second.proxied;
    }
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const FacebookPage& a, const FacebookPage& b) {
              if (a.censored != b.censored) return a.censored > b.censored;
              return a.page < b.page;
            });
  return out;
}

}  // namespace syrwatch::analysis
