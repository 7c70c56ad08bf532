#include "analysis/redirects.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace syrwatch::analysis {

std::vector<RedirectHost> redirect_hosts(const LogSource& source,
                                         const RedirectHostsOptions& options,
                                         std::size_t threads) {
  const std::size_t k = options.k;
  struct Partial {
    std::uint64_t total = 0;
    std::unordered_map<std::string_view, std::uint64_t> counts;
  };
  const auto partials = scan_partials<Partial>(
      source, threads, [](Partial& p, const Record& r) {
        if (r.exception != proxy::ExceptionId::kPolicyRedirect) return;
        ++p.total;
        ++p.counts[r.host];
      });

  std::unordered_map<std::string_view, std::uint64_t> counts;
  std::uint64_t total = 0;
  for (const Partial& p : partials) {
    total += p.total;
    for (const auto& [host, count] : p.counts) counts[host] += count;
  }
  std::vector<RedirectHost> out;
  out.reserve(counts.size());
  for (const auto& [host, count] : counts)
    out.push_back({std::string(host), count,
                   total == 0 ? 0.0
                              : static_cast<double>(count) /
                                    static_cast<double>(total)});
  std::sort(out.begin(), out.end(),
            [](const RedirectHost& a, const RedirectHost& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.host < b.host;
            });
  if (k != 0 && out.size() > k) out.resize(k);
  return out;
}

std::uint64_t redirect_followups(const LogSource& source,
                                 const RedirectFollowupOptions& options,
                                 std::size_t threads) {
  const std::int64_t window_seconds = options.window_seconds;
  // Records arrive in emission order, which is time-sorted only up to
  // jitter inside a generation slot, so the rule reads no order: a
  // redirect by user u != 0 to host h at time t is followed up when u has
  // a row to a host other than h stamped in [t, t + window]. One scan
  // collects the (few) redirects, a second marks each redirect some row
  // follows up. Marks fold by OR, so the count is the same for any row
  // order, partition layout and thread count.
  struct Redirect {
    std::int64_t time = 0;
    std::uint64_t user = 0;
    std::string_view host;
  };
  std::vector<Redirect> redirects;
  for (const auto& part : scan_partials<std::vector<Redirect>>(
           source, threads, [](std::vector<Redirect>& p, const Record& r) {
             if (r.exception == proxy::ExceptionId::kPolicyRedirect &&
                 r.user_hash != 0)
               p.push_back({r.time, r.user_hash, r.host});
           }))
    redirects.insert(redirects.end(), part.begin(), part.end());
  if (redirects.empty()) return 0;

  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_user;
  for (std::size_t i = 0; i < redirects.size(); ++i)
    by_user[redirects[i].user].push_back(static_cast<std::uint32_t>(i));
  const auto marks = scan_partials<std::vector<std::uint8_t>>(
      source, threads, [&](std::vector<std::uint8_t>& p, const Record& r) {
        if (r.user_hash == 0) return;
        const auto it = by_user.find(r.user_hash);
        if (it == by_user.end()) return;
        if (p.empty()) p.assign(redirects.size(), 0);
        for (const std::uint32_t i : it->second) {
          const Redirect& redirect = redirects[i];
          if (r.host != redirect.host && r.time >= redirect.time &&
              r.time - redirect.time <= window_seconds)
            p[i] = 1;
        }
      });
  std::vector<std::uint8_t> followed(redirects.size(), 0);
  for (const auto& p : marks)
    for (std::size_t i = 0; i < p.size(); ++i) followed[i] |= p[i];
  return static_cast<std::uint64_t>(
      std::count(followed.begin(), followed.end(), std::uint8_t{1}));
}

}  // namespace syrwatch::analysis
