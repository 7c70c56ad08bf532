#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/options.h"
#include "analysis/scan.h"

namespace syrwatch::analysis {

/// Table 7: hosts (full hostnames, not registrable domains — the paper
/// lists www.facebook.com and ar-ar.facebook.com separately) raising
/// policy_redirect, ranked by request count. PROXIED replays of redirect
/// decisions count too, as they do in the leak.
struct RedirectHost {
  std::string host;
  std::uint64_t requests = 0;
  double share = 0.0;
};

std::vector<RedirectHost> redirect_hosts(
    const LogSource& source, const RedirectHostsOptions& options = {},
    std::size_t threads = 1);

/// §5.3's negative finding: redirected clients never re-appear with a
/// follow-up request within `window_seconds`, implying the redirect target
/// bypasses the logged proxies. Returns the number of redirects (by a
/// user with a client hash) for which the same user has a request to a
/// *different* host stamped within [t, t + window_seconds] of the
/// redirect's time t. Row order does not matter.
std::uint64_t redirect_followups(
    const LogSource& source, const RedirectFollowupOptions& options = {},
    std::size_t threads = 1);

}  // namespace syrwatch::analysis
