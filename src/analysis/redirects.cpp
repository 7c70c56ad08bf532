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

namespace {

struct PendingRedirect {
  std::int64_t deadline = 0;  // last timestamp that can still resolve it
  std::uint64_t user = 0;
  std::string_view host;
};

struct HeadRow {
  std::int64_t time = 0;
  std::uint64_t user = 0;
  std::string_view host;
};

}  // namespace

std::uint64_t redirect_followups(const LogSource& source,
                                 const RedirectFollowupOptions& options,
                                 std::size_t threads) {
  const std::int64_t window_seconds = options.window_seconds;
  // Records arrive in emission order — time-sorted up to jitter inside one
  // generation slot — so "a same-user request to a different host within
  // the window" is a forward scan. Each partition resolves what it
  // can locally; redirects whose window crosses the partition end become
  // pendings, and each partition also keeps its head rows (time within
  // window_seconds of its first row) — since times are non-decreasing, any
  // row that can resolve an earlier partition's pending lies in that head.
  struct Partial {
    std::uint64_t resolved = 0;
    std::vector<PendingRedirect> pendings;
    std::vector<HeadRow> heads;
    std::int64_t first_time = 0;
    std::int64_t last_time = 0;
    bool has_rows = false;
  };
  auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        if (!p.has_rows) {
          p.has_rows = true;
          p.first_time = r.time;
        }
        p.last_time = r.time;
        if (r.time <= p.first_time + window_seconds)
          p.heads.push_back({r.time, r.user_hash, r.host});
        // A row past a pending's deadline expires it; a matching row within
        // the deadline resolves it. Order against step below keeps the
        // original i+1 semantics: a redirect never resolves itself.
        std::erase_if(p.pendings, [&](const PendingRedirect& pending) {
          if (r.time > pending.deadline) return true;  // unresolved
          if (r.user_hash == pending.user && r.host != pending.host) {
            ++p.resolved;
            return true;
          }
          return false;
        });
        if (r.exception == proxy::ExceptionId::kPolicyRedirect &&
            r.user_hash != 0)
          p.pendings.push_back(
              {r.time + window_seconds, r.user_hash, r.host});
      });

  std::uint64_t resolved = 0;
  std::vector<PendingRedirect> carry;
  for (Partial& p : partials) {
    resolved += p.resolved;
    if (p.has_rows) {
      for (const HeadRow& row : p.heads) {
        std::erase_if(carry, [&](const PendingRedirect& pending) {
          if (row.time > pending.deadline) return true;  // unresolved
          if (row.user == pending.user && row.host != pending.host) {
            ++resolved;
            return true;
          }
          return false;
        });
      }
      // Rows beyond the head all sit past any carried deadline; a pending
      // that this partition's tail outruns can never resolve later either.
      std::erase_if(carry, [&](const PendingRedirect& pending) {
        return pending.deadline < p.last_time;
      });
    }
    carry.insert(carry.end(), p.pendings.begin(), p.pendings.end());
  }
  return resolved;
}

}  // namespace syrwatch::analysis
