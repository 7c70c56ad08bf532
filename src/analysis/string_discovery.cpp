#include "analysis/string_discovery.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"
#include "util/substring_matcher.h"

namespace syrwatch::analysis {

namespace {

constexpr std::size_t kMinTokenLength = 5;
/// A token must occur in at least this many censored paths/queries to be
/// picked — host-only strings are the domain generator's business.
constexpr std::uint64_t kMinPathQueryCount = 3;

bool all_digits(std::string_view s) noexcept {
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return !s.empty();
}

/// Splits a URL-ish text into lower-case alphanumeric tokens.
template <typename Fn>
void for_each_token(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  auto is_word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  while (start < text.size()) {
    while (start < text.size() && !is_word(text[start])) ++start;
    std::size_t end = start;
    while (end < text.size() && is_word(text[end])) ++end;
    if (end > start) fn(text.substr(start, end - start));
    start = end;
  }
}

struct CensoredRow {
  std::string filter_text;   // lower-cased host+path?query
  std::string host;          // lower-cased
  std::string domain;        // registrable
  std::string path_query;    // lower-cased path + query (token eligibility)
  bool anchor = false;       // bare-domain request (paper's §5.4 rule)
  bool alive = true;
};

struct ProxiedRow {
  std::string host;         // lower-cased
  std::string filter_text;  // lower-cased host+path?query
};

using Counts = std::unordered_map<std::string, std::uint64_t>;

/// One round of candidate generation over the live censored rows.
struct Tallies {
  Counts anchor_domains;
  Counts tokens;
  Counts token_pathquery;
};

Tallies tally(const std::vector<CensoredRow>& censored,
              const std::unordered_set<std::string>& rejected_domains,
              const std::unordered_set<std::string>& rejected_tokens) {
  Tallies t;
  for (const CensoredRow& row : censored) {
    if (!row.alive) continue;
    if (row.anchor && rejected_domains.count(row.domain) == 0)
      ++t.anchor_domains[row.domain];
    std::unordered_set<std::string_view> seen;  // count once per request
    for_each_token(row.filter_text, [&](std::string_view token) {
      if (token.size() < kMinTokenLength || all_digits(token)) return;
      if (!seen.insert(token).second) return;
      const std::string key{token};
      if (rejected_tokens.count(key) != 0) return;
      ++t.tokens[key];
      if (row.path_query.find(token) != std::string::npos)
        ++t.token_pathquery[key];
    });
  }
  return t;
}

/// String → dense index, looked up by string_view without a copy.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
using StringIndex =
    std::unordered_map<std::string, std::uint32_t, StringHash,
                       std::equal_to<>>;

}  // namespace

std::vector<std::string> DiscoveryResult::domain_names() const {
  std::vector<std::string> names;
  names.reserve(domains.size());
  for (const auto& d : domains) names.push_back(d.text);
  return names;
}

DiscoveryResult discover_censored_strings(const LogSource& source,
                                          const DiscoveryOptions& options,
                                          std::size_t threads) {
  DiscoveryResult result;

  // ---- Pass 1: the censored set C and the PROXIED rows -------------------
  // Candidate maps downstream iterate in insertion order, so the fold
  // concatenates rows in partition order to keep the global row order.
  struct Collected {
    std::vector<CensoredRow> censored;
    std::vector<ProxiedRow> proxied;
  };
  auto collected = scan_partials<Collected>(
      source, threads, [](Collected& p, const Record& r) {
        if (r.cls == proxy::TrafficClass::kCensored) {
          if (r.host_is_ip) return;  // IP filtering: §5.4's separate analysis
          CensoredRow cr;
          cr.host = util::to_lower(r.host);
          cr.domain = std::string{r.domain};
          const std::string path = util::to_lower(r.path);
          const std::string query = util::to_lower(r.query);
          cr.path_query = path + (query.empty() ? "" : "?" + query);
          cr.filter_text = cr.host + cr.path_query;
          cr.anchor = query.empty() && (path.empty() || path == "/");
          p.censored.push_back(std::move(cr));
        } else if (r.cls == proxy::TrafficClass::kProxied) {
          p.proxied.push_back(
              {util::to_lower(r.host), util::to_lower(r.filter_text())});
        }
      });
  std::vector<CensoredRow> censored;
  std::vector<ProxiedRow> proxied;
  for (Collected& p : collected) {
    censored.insert(censored.end(),
                    std::make_move_iterator(p.censored.begin()),
                    std::make_move_iterator(p.censored.end()));
    proxied.insert(proxied.end(), std::make_move_iterator(p.proxied.begin()),
                   std::make_move_iterator(p.proxied.end()));
  }
  collected.clear();

  result.censored_requests_total = censored.size();
  const std::uint64_t threshold = std::max<std::uint64_t>(
      options.min_count,
      static_cast<std::uint64_t>(options.min_support *
                                 static_cast<double>(censored.size())));

  // ---- The strings the loop can test against the allowed set A ----------
  // Domains and hosts come from C's rows. Counts only fall as rows die, so
  // a token the loop can pick must already clear the threshold and the
  // path/query floor on the full C.
  StringIndex token_index;
  StringIndex domain_index;
  StringIndex host_index;
  std::vector<std::string> tokens;
  {
    const Tallies full = tally(censored, {}, {});
    for (const auto& [token, count] : full.tokens) {
      const auto pq = full.token_pathquery.find(token);
      if (count < threshold || pq == full.token_pathquery.end() ||
          pq->second < kMinPathQueryCount)
        continue;
      token_index.emplace(token, static_cast<std::uint32_t>(tokens.size()));
      tokens.push_back(token);
    }
  }
  for (const CensoredRow& row : censored) {
    domain_index.try_emplace(row.domain,
                             static_cast<std::uint32_t>(domain_index.size()));
    host_index.try_emplace(row.host,
                           static_cast<std::uint32_t>(host_index.size()));
  }

  // ---- Pass 2: which of those strings occur in A -------------------------
  // One flag per string: tokens first, then domains, then hosts. A token
  // is [a-z0-9]+, so it can span neither the '?' before the query nor a
  // record boundary: matching host+path as one stream and the query as
  // another finds exactly the tokens a substring search of the records'
  // lower-cased filter texts would. Record::domain is already the
  // registrable domain of the lower-cased host, so the domain and host
  // flags a row sets depend on its host alone: each distinct host is
  // looked up (and lower-cased) once. Flags fold by OR, so the result is
  // the same for any partition layout and thread count.
  const util::SubstringMatcher matcher{tokens};
  const std::size_t domain_offset = tokens.size();
  const std::size_t host_offset = domain_offset + domain_index.size();
  const std::size_t flag_count = host_offset + host_index.size();
  constexpr std::uint32_t kNoFlag = ~std::uint32_t{0};
  const auto flag_of = [&](const StringIndex& index, std::size_t offset,
                           std::string_view text) {
    const auto it = index.find(text);
    return it == index.end()
               ? kNoFlag
               : static_cast<std::uint32_t>(offset + it->second);
  };
  const auto domain_flag = per_host_slot<std::uint32_t>(
      source, threads, [&](const ColumnStore::HostInfo& host) {
        return flag_of(domain_index, domain_offset, host.domain);
      });
  const auto host_flag = per_host_slot<std::uint32_t>(
      source, threads, [&](const ColumnStore::HostInfo& host) {
        std::string scratch;
        return flag_of(host_index, host_offset,
                       util::lowered(host.name, scratch));
      });
  using AllowedHits = std::vector<std::uint8_t>;
  const auto hits = scan_partials<AllowedHits>(
      source, threads, [&](AllowedHits& flags, const Record& r) {
        if (r.cls != proxy::TrafficClass::kAllowed) return;
        if (flags.size() != flag_count) flags.assign(flag_count, 0);
        const auto hit = [&](std::uint32_t id) { flags[id] = 1; };
        matcher.feed(matcher.feed(util::SubstringMatcher::kStart, r.host, hit),
                     r.path, hit);
        matcher.feed(util::SubstringMatcher::kStart, r.query, hit);
        if (const std::uint32_t flag = domain_flag[r.host_slot];
            flag != kNoFlag)
          flags[flag] = 1;
        if (const std::uint32_t flag = host_flag[r.host_slot]; flag != kNoFlag)
          flags[flag] = 1;
      });
  std::vector<std::uint8_t> allowed(flag_count, 0);
  for (const AllowedHits& flags : hits) {
    for (std::size_t i = 0; i < flags.size(); ++i) allowed[i] |= flags[i];
  }

  auto never_allowed_domain = [&](const std::string& domain) {
    return allowed[domain_offset + domain_index.at(domain)] == 0;
  };
  auto never_allowed_host = [&](const std::string& host) {
    return allowed[host_offset + host_index.at(host)] == 0;
  };
  auto in_allowed = [&](const std::string& token) {
    return allowed[token_index.at(token)] != 0;
  };
  auto count_proxied = [&](const std::string& text, bool is_domain) {
    std::uint64_t count = 0;
    for (const ProxiedRow& row : proxied) {
      if (is_domain ? util::host_matches_domain(row.host, text)
                    : row.filter_text.find(text) != std::string::npos)
        ++count;
    }
    return count;
  };

  std::unordered_set<std::string> rejected_tokens;
  std::unordered_set<std::string> rejected_domains;

  // ---- The iterative loop of §5.4 ---------------------------------------
  while (result.keywords.size() + result.domains.size() <
         options.max_strings) {
    // Candidate generation over the live rows.
    const Tallies t = tally(censored, rejected_domains, rejected_tokens);

    // Anchor-domain support = total live rows on the domain (the anchor
    // only disambiguates, as in the paper; the count is the domain's).
    Counts domain_counts;
    for (const CensoredRow& row : censored) {
      if (!row.alive) continue;
      if (t.anchor_domains.count(row.domain) != 0) ++domain_counts[row.domain];
    }

    // Pick the globally most frequent candidate.
    std::string best;
    std::uint64_t best_count = 0;
    bool best_is_domain = false;
    for (const auto& [domain, count] : domain_counts) {
      if (count > best_count) {
        best = domain;
        best_count = count;
        best_is_domain = true;
      }
    }
    for (const auto& [token, count] : t.tokens) {
      // Tokens must occur in paths/queries, not only inside hostnames.
      const auto pq = t.token_pathquery.find(token);
      if (pq == t.token_pathquery.end() || pq->second < kMinPathQueryCount)
        continue;
      if (count > best_count) {
        best = token;
        best_count = count;
        best_is_domain = false;
      }
    }
    // No candidate left (best_count 0) ends the loop even at threshold 0.
    if (best_count == 0 || best_count < threshold) break;

    auto remove_by_domain = [&](const std::string& domain) {
      std::uint64_t removed = 0;
      for (CensoredRow& row : censored) {
        if (row.alive && util::host_matches_domain(row.host, domain)) {
          row.alive = false;
          ++removed;
        }
      }
      return removed;
    };
    auto remove_by_keyword = [&](const std::string& keyword) {
      std::uint64_t removed = 0;
      for (CensoredRow& row : censored) {
        if (row.alive &&
            row.filter_text.find(keyword) != std::string::npos) {
          row.alive = false;
          ++removed;
        }
      }
      return removed;
    };

    if (best_is_domain) {
      if (!never_allowed_domain(best)) {
        rejected_domains.insert(best);
        continue;
      }
      const std::uint64_t removed = remove_by_domain(best);
      result.domains.push_back(
          {best, true, removed, count_proxied(best, true)});
      result.censored_requests_explained += removed;
      continue;
    }

    // Token candidate: the NA = 0 test against the allowed set.
    if (in_allowed(best)) {
      rejected_tokens.insert(best);
      continue;
    }
    // Attribution: a token confined to a single never-allowed domain (or
    // host) is really URL filtering of that site, not keyword filtering.
    std::unordered_set<std::string> live_domains;
    std::unordered_set<std::string> live_hosts;
    for (const CensoredRow& row : censored) {
      if (row.alive && row.filter_text.find(best) != std::string::npos) {
        live_domains.insert(row.domain);
        live_hosts.insert(row.host);
      }
    }
    if (live_domains.size() == 1) {
      const std::string domain = *live_domains.begin();
      std::string accepted;
      if (never_allowed_domain(domain)) accepted = domain;
      else if (live_hosts.size() == 1 &&
               never_allowed_host(*live_hosts.begin()))
        accepted = *live_hosts.begin();
      if (!accepted.empty()) {
        const std::uint64_t removed = remove_by_domain(accepted);
        result.domains.push_back(
            {accepted, true, removed, count_proxied(accepted, true)});
        result.censored_requests_explained += removed;
        rejected_tokens.insert(best);  // covered by the domain entry
        continue;
      }
    }
    const std::uint64_t removed = remove_by_keyword(best);
    result.keywords.push_back(
        {best, false, removed, count_proxied(best, false)});
    result.censored_requests_explained += removed;
  }

  // ---- Collapse .il domains into the TLD entry (Table 8's ".il") --------
  std::vector<DiscoveredString> il_entries;
  auto it = std::stable_partition(
      result.domains.begin(), result.domains.end(),
      [](const DiscoveredString& d) { return !util::ends_with(d.text, ".il"); });
  il_entries.assign(it, result.domains.end());
  result.domains.erase(it, result.domains.end());
  if (il_entries.size() >= options.min_tld_domains) {
    DiscoveredString il{".il", true, 0, 0};
    for (const auto& entry : il_entries) {
      il.censored += entry.censored;
      il.proxied += entry.proxied;
    }
    result.domains.push_back(il);
  } else {
    result.domains.insert(result.domains.end(), il_entries.begin(),
                          il_entries.end());
  }

  std::sort(result.domains.begin(), result.domains.end(),
            [](const DiscoveredString& a, const DiscoveredString& b) {
              return a.censored > b.censored;
            });
  std::sort(result.keywords.begin(), result.keywords.end(),
            [](const DiscoveredString& a, const DiscoveredString& b) {
              return a.censored > b.censored;
            });
  return result;
}

}  // namespace syrwatch::analysis
