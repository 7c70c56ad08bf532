#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scan.h"
#include "analysis/top_domains.h"

namespace syrwatch::analysis {

/// Automated version of §5.4's iterative censored-string recovery.
///
/// The paper's loop: pick a string w frequent in the censored URL set C,
/// confirm it never occurs in the allowed set A (PROXIED held aside), then
/// remove every censored request containing w and repeat. We mechanize the
/// "manually identify" step with two candidate generators:
///  * keywords — tokens of censored URL paths/queries/hosts, split on URL
///    punctuation;
///  * domains — registrable domains of censored *anchor* requests (bare
///    domain, empty or "/" path, no query), which is exactly the paper's
///    conservative disambiguation rule; ".il" is emitted when several
///    distinct never-allowed .il domains exist.
struct DiscoveryOptions {
  /// Minimum censored occurrences before a candidate is considered, as a
  /// fraction of the censored set, with an absolute floor (`min_count`) —
  /// the "NC >> 1" condition of the paper's loop.
  double min_support = 1e-4;
  std::uint64_t min_count = 20;
  std::size_t max_strings = 256;
  /// Minimum distinct .il registrable domains to emit the ".il" TLD entry.
  std::size_t min_tld_domains = 3;
};

struct DiscoveredString {
  std::string text;
  bool is_domain = false;  // domains match hosts; keywords match URLs
  std::uint64_t censored = 0;  // NC at acceptance time (before removal)
  std::uint64_t proxied = 0;   // PROXIED requests matching the string
};

struct DiscoveryResult {
  std::vector<DiscoveredString> keywords;  // Table 10
  std::vector<DiscoveredString> domains;   // the 105-entry list, Tables 8/9
  std::uint64_t censored_requests_explained = 0;
  std::uint64_t censored_requests_total = 0;

  /// Domain names only, ranked by censored count (Table 8 / Table 9 input).
  std::vector<std::string> domain_names() const;
};

/// Two parallel scans feed the sequential loop (each accepted string
/// reshapes the live set). Pass 1 collects C and the PROXIED rows. The
/// allowed set A is never materialized: the loop only asks whether A holds
/// one of C's hosts or registrable domains, or one of the tokens that
/// already clear the thresholds on the full C (counts only fall as rows
/// are removed, so no other token can be picked). Pass 2 tests each
/// allowed record against exactly those strings — one case-folded
/// Aho–Corasick pass over its host+path and query for the tokens, and two
/// per-host-slot tables, built once per distinct host, for its host and
/// domain — and keeps one hit flag per string.
/// `threads` governs the two scans only; the result is identical for any
/// value.
DiscoveryResult discover_censored_strings(const LogSource& source,
                                          const DiscoveryOptions& options = {},
                                          std::size_t threads = 1);

}  // namespace syrwatch::analysis
