// Id-keyed partials and per-host decisions (DESIGN.md §4.11). Stores give
// each registrable domain a dense id and each distinct host a dense slot;
// top domains, the domain distribution, the class counts, the Facebook
// page test and discovery's allowed-set flags decide through them, and
// must equal text-keyed, per-row references on random stores full of
// count ties and case variants. Dsample's radix order must equal
// std::stable_sort, and derive_sources' one-scan views the masked and
// filtered views built the old way. Every check runs on both backends
// (row Dataset and SYRCOL1 ColumnarLog) at threads 1, 2, 4 and 7.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/dataset.h"
#include "analysis/domain_dist.h"
#include "analysis/osn.h"
#include "analysis/scan.h"
#include "analysis/string_discovery.h"
#include "analysis/temporal.h"
#include "analysis/top_domains.h"
#include "colfmt/container.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/simtime.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::analysis;
namespace fs = std::filesystem;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 7};
constexpr proxy::TrafficClass kClasses[] = {
    proxy::TrafficClass::kAllowed, proxy::TrafficClass::kCensored,
    proxy::TrafficClass::kError, proxy::TrafficClass::kProxied};

std::string upper(std::string text) {
  for (char& c : text)
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  return text;
}

proxy::LogRecord record_of(std::string host, proxy::TrafficClass cls,
                           std::int64_t time) {
  proxy::LogRecord record;
  record.time = time;
  record.method = "GET";
  record.url.host = std::move(host);  // as given: Url::parse would lower it
  record.url.path = "/";
  switch (cls) {
    case proxy::TrafficClass::kAllowed:
      break;
    case proxy::TrafficClass::kCensored:
      record.filter_result = proxy::FilterResult::kDenied;
      record.exception = proxy::ExceptionId::kPolicyDenied;
      break;
    case proxy::TrafficClass::kError:
      record.filter_result = proxy::FilterResult::kDenied;
      record.exception = proxy::ExceptionId::kTcpError;
      break;
    case proxy::TrafficClass::kProxied:
      record.filter_result = proxy::FilterResult::kProxied;
      break;
  }
  return record;
}

/// One log held by both stores. The container is cut into small blocks,
/// so it has many more partitions than the Dataset.
class Backends {
 public:
  Backends(const std::vector<proxy::LogRecord>& records,
           const std::string& name)
      : path_(fs::path(::testing::TempDir()) /
              ("syrwatch_id_partials_" + name + ".col")) {
    for (const proxy::LogRecord& record : records) dataset_.add(record);
    colfmt::WriterOptions options;
    options.block_rows = 700;
    colfmt::Writer writer{path_.string(), options};
    for (const proxy::LogRecord& record : records) writer.add(record);
    writer.finish();
    columnar_ = std::make_unique<ColumnarLog>(
        colfmt::Reader::open(path_.string()), 2);
  }
  ~Backends() {
    columnar_.reset();
    std::error_code ec;
    fs::remove(path_, ec);
  }

  std::vector<std::pair<const char*, LogSource>> sources() const {
    return {{"dataset", LogSource{dataset_}},
            {"columnar", LogSource{*columnar_}}};
  }

 private:
  fs::path path_;
  Dataset dataset_;
  std::unique_ptr<ColumnarLog> columnar_;
};

constexpr std::int64_t kT0 = 1'311'300'000;  // July 22, 2011

/// Hosts of a few hundred domains, among them hosts that differ only in
/// case, ".co.il" domains under the ".il" TLD, Facebook hosts, IP
/// literals and an empty host.
std::vector<std::string> host_pool() {
  std::vector<std::string> hosts;
  for (int d = 0; d < 150; ++d) {
    const std::string domain = d % 4 == 0
                                   ? "s" + std::to_string(d) + ".co.il"
                                   : "d" + std::to_string(d) + ".com";
    hosts.push_back(domain);
    hosts.push_back("www." + domain);
    if (d % 3 == 0) hosts.push_back(upper("www." + domain));
  }
  for (const char* host :
       {"facebook.com", "www.facebook.com", "ar-ar.FACEBOOK.com",
        "notfacebook.com", "10.1.2.3", "10.1.2.4", "localhost", ""})
    hosts.emplace_back(host);
  return hosts;
}

/// Random rows over host_pool(): few rows per domain and class, so many
/// domains tie on their counts. Facebook rows carry page paths, some with
/// the "Blocked sites" label.
std::vector<proxy::LogRecord> random_log(std::size_t rows,
                                         std::uint64_t seed) {
  const std::vector<std::string> hosts = host_pool();
  util::Rng rng{seed};
  std::vector<proxy::LogRecord> records;
  records.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& host = hosts[rng.uniform(hosts.size())];
    proxy::LogRecord record =
        record_of(host, kClasses[rng.uniform(4)],
                  kT0 + static_cast<std::int64_t>(rng.uniform(
                            3 * util::kSecondsPerDay)));
    if (util::icontains(host, "facebook")) {
      record.url.path = "/page" + std::to_string(rng.uniform(6));
      if (rng.uniform(4) == 0) record.categories = "Blocked sites";
    }
    records.push_back(std::move(record));
  }
  return records;
}

const Backends& random_store() {
  static const Backends backends{random_log(40'000, 2011), "random"};
  return backends;
}

std::vector<Record> records_of(const LogSource& source) {
  std::vector<Record> records;
  scan_increment(source, 0, [&](const Record& r) { records.push_back(r); });
  return records;
}

std::string render(const std::vector<DomainCount>& top) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const DomainCount& entry : top)
    out << entry.domain << ':' << entry.count << ':' << entry.share << ';';
  return out.str();
}

// --- the stores' ids --------------------------------------------------------

TEST(IdPartials, DomainIdsAndHostSlotsAreDenseInFirstSeenOrder) {
  std::vector<std::vector<std::uint32_t>> per_backend;
  for (const auto& [backend, source] : random_store().sources()) {
    const ColumnStore& store = source.store();
    std::map<std::string_view, std::uint32_t> domain_ids;
    std::map<std::string_view, std::uint32_t> host_slots;
    std::vector<std::uint32_t> ids;
    for (const Record& r : records_of(source)) {
      // The empty domain is id 0 whether or not it occurs.
      const std::uint32_t next_domain =
          static_cast<std::uint32_t>(domain_ids.size()) +
          (domain_ids.count("") != 0 ? 0 : 1);
      const auto domain = domain_ids.try_emplace(
          r.domain, r.domain.empty() ? 0 : next_domain);
      ASSERT_EQ(r.domain_id, domain.first->second) << backend << r.domain;
      ASSERT_EQ(store.domain(r.domain_id), r.domain) << backend;
      const auto host = host_slots.try_emplace(
          r.host, static_cast<std::uint32_t>(host_slots.size()));
      ASSERT_EQ(r.host_slot, host.first->second) << backend << r.host;
      ASSERT_EQ(store.host_at(r.host_slot).name, r.host) << backend;
      ASSERT_EQ(store.host_at(r.host_slot).domain_id, r.domain_id);
      ids.push_back(r.domain_id);
      ids.push_back(r.host_slot);
    }
    EXPECT_EQ(store.host_count(), host_slots.size()) << backend;
    EXPECT_EQ(store.domain_count(),
              domain_ids.size() + (domain_ids.count("") != 0 ? 0 : 1))
        << backend;
    per_backend.push_back(std::move(ids));
  }
  EXPECT_EQ(per_backend[0], per_backend[1]);
}

// --- counting by id ---------------------------------------------------------

/// Top-k by text: counts in a string map, the old total order, resize.
std::vector<DomainCount> reference_top(const LogSource& source,
                                       proxy::TrafficClass cls, std::size_t k,
                                       const std::optional<TimeRange>& window) {
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t total = 0;
  scan_increment(source, 0, [&](const Record& r) {
    if (r.cls != cls || (window && !window->contains(r.time))) return;
    ++counts[std::string(r.domain)];
    ++total;
  });
  std::vector<DomainCount> ranked;
  for (const auto& [domain, count] : counts)
    ranked.push_back({domain, count,
                      static_cast<double>(count) / static_cast<double>(total)});
  std::sort(ranked.begin(), ranked.end(),
            [](const DomainCount& a, const DomainCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.domain < b.domain;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

TEST(IdPartials, TopDomainsMatchATextKeyedReference) {
  const std::vector<std::optional<TimeRange>> windows = {
      std::nullopt,
      TimeRange{kT0 + 3600, kT0 + 2 * 3600},
      TimeRange{kT0 + 30'000, kT0 + 30'000 + 7'200},
      TimeRange{kT0 - 7200, kT0 - 3600}};  // empty
  for (const auto& [backend, source] : random_store().sources()) {
    for (const proxy::TrafficClass cls : kClasses) {
      for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{10}, std::size_t{100'000}}) {
        for (const auto& window : windows) {
          const std::string want =
              render(reference_top(source, cls, k, window));
          if (k == 10 && !window) {
            // The ranked head must hold ties for the test to mean much.
            const auto head = reference_top(source, cls, 100'000, window);
            std::set<std::uint64_t> distinct;
            for (const auto& entry : head) distinct.insert(entry.count);
            ASSERT_LT(distinct.size() * 2, head.size());
          }
          for (const std::size_t threads : kThreadCounts)
            EXPECT_EQ(render(top_domains(source, {cls, k, window}, threads)),
                      want)
                << backend << " class " << static_cast<int>(cls) << " k " << k
                << " threads " << threads;
        }
      }
    }
  }
}

TEST(IdPartials, WindowedTopCensoredMatchesTheReference) {
  WindowedTopOptions options;
  for (int h = 0; h < 72; h += 7)
    options.windows.push_back({kT0 + h * 3600, kT0 + (h + 1) * 3600});
  options.k = 5;
  for (const auto& [backend, source] : random_store().sources()) {
    for (const std::size_t threads : kThreadCounts) {
      const auto windowed = windowed_top_censored(source, options, threads);
      ASSERT_EQ(windowed.size(), options.windows.size());
      for (std::size_t w = 0; w < windowed.size(); ++w)
        EXPECT_EQ(render(windowed[w].top),
                  render(reference_top(source, proxy::TrafficClass::kCensored,
                                       options.k, options.windows[w])))
            << backend << " window " << w << " threads " << threads;
    }
  }
}

TEST(IdPartials, DomainDistributionMatchesATextKeyedReference) {
  for (const auto& [backend, source] : random_store().sources()) {
    for (const proxy::TrafficClass cls : kClasses) {
      std::map<std::string, std::uint64_t> per_domain;
      scan_increment(source, 0, [&](const Record& r) {
        if (r.cls == cls) ++per_domain[std::string(r.domain)];
      });
      std::vector<std::uint64_t> counts;
      for (const auto& [domain, count] : per_domain) counts.push_back(count);
      const auto want = util::frequency_of_frequencies(counts);
      for (const std::size_t threads : kThreadCounts) {
        const DomainDistribution got =
            domain_distribution(source, cls, threads);
        EXPECT_EQ(got.domains_by_request_count, want) << backend;
        EXPECT_EQ(got.unique_domains, per_domain.size()) << backend;
        EXPECT_EQ(got.max_requests,
                  *std::max_element(counts.begin(), counts.end()))
            << backend;
        EXPECT_EQ(got.loglog_slope,
                  domain_distribution(source, cls, 1).loglog_slope);
      }
    }
  }
}

// --- matching per host slot -------------------------------------------------

TEST(IdPartials, DomainClassCountsMatchAPerRowReference) {
  // Overlapping entries (one host matches several), entries in another
  // case than the hosts, and entries that match nothing.
  const std::vector<std::string> domains = {
      "facebook.com", ".il",      "co.il", "s4.co.il",   "d5.com",
      "www.d5.com",   "WWW.D6.COM", "d6.com", "D9.com",  "example.org",
      "",             "10.1.2.3", "ook.com", "localhost"};
  for (const auto& [backend, source] : random_store().sources()) {
    std::vector<DomainClassCounts> want;
    for (const std::string& domain : domains) want.push_back({domain, 0, 0, 0});
    std::size_t multi_matched = 0;
    scan_increment(source, 0, [&](const Record& r) {
      std::size_t matches = 0;
      for (DomainClassCounts& entry : want) {
        if (!util::host_matches_domain(r.host, entry.domain)) continue;
        ++matches;
        if (r.cls == proxy::TrafficClass::kCensored) ++entry.censored;
        if (r.cls == proxy::TrafficClass::kAllowed) ++entry.allowed;
        if (r.cls == proxy::TrafficClass::kProxied) ++entry.proxied;
      }
      if (matches > 1) ++multi_matched;
    });
    ASSERT_GT(multi_matched, 0u);
    for (const std::size_t threads : kThreadCounts) {
      const auto got = domain_class_counts(source, domains, threads);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].domain, want[i].domain);
        EXPECT_EQ(got[i].censored, want[i].censored)
            << backend << ' ' << want[i].domain << " threads " << threads;
        EXPECT_EQ(got[i].allowed, want[i].allowed)
            << backend << ' ' << want[i].domain << " threads " << threads;
        EXPECT_EQ(got[i].proxied, want[i].proxied)
            << backend << ' ' << want[i].domain << " threads " << threads;
      }
    }
  }
}

TEST(IdPartials, BlockedFacebookPagesMatchAPerRowReference) {
  for (const auto& [backend, source] : random_store().sources()) {
    std::set<std::string> labeled;
    std::map<std::string, std::array<std::uint64_t, 3>> by_path;
    scan_increment(source, 0, [&](const Record& r) {
      if (!util::host_matches_domain(r.host, "facebook.com") ||
          r.path.size() < 2)
        return;
      const std::string page{r.path.substr(1)};
      if (util::contains(r.categories, "Blocked sites")) labeled.insert(page);
      auto& counts = by_path[page];
      if (r.cls == proxy::TrafficClass::kCensored) ++counts[0];
      if (r.cls == proxy::TrafficClass::kAllowed) ++counts[1];
      if (r.cls == proxy::TrafficClass::kProxied) ++counts[2];
    });
    ASSERT_FALSE(labeled.empty());
    for (const std::size_t threads : kThreadCounts) {
      const auto pages = blocked_facebook_pages(source, threads);
      ASSERT_EQ(pages.size(), labeled.size()) << backend;
      for (const FacebookPage& page : pages) {
        ASSERT_EQ(labeled.count(page.page), 1u) << page.page;
        const auto& counts = by_path.at(page.page);
        EXPECT_EQ(page.censored, counts[0]) << backend << ' ' << page.page;
        EXPECT_EQ(page.allowed, counts[1]) << backend << ' ' << page.page;
        EXPECT_EQ(page.proxied, counts[2]) << backend << ' ' << page.page;
      }
    }
  }
}

TEST(IdPartials, DiscoveryLowerCasesAllowedHostsOncePerHost) {
  // A token confined to one censored host whose domain is allowed: it is
  // attributed to the host unless the host itself is allowed — here only
  // in upper case, which the allowed-set pass must fold.
  std::vector<proxy::LogRecord> records;
  for (int i = 0; i < 40; ++i) {
    proxy::LogRecord censored = record_of(
        "www.site.com", proxy::TrafficClass::kCensored, kT0 + i);
    censored.url.path = "/forbiddenword/" + std::to_string(i);
    records.push_back(censored);
    records.push_back(
        record_of("other.site.com", proxy::TrafficClass::kAllowed, kT0 + i));
  }
  const auto names = [](const std::vector<DiscoveredString>& strings) {
    std::vector<std::string> out;
    for (const auto& s : strings) out.push_back(s.text);
    return out;
  };
  using Names = std::vector<std::string>;
  {
    const Backends host_never_allowed{records, "discovery_a"};
    for (const auto& [backend, source] : host_never_allowed.sources()) {
      for (const std::size_t threads : kThreadCounts) {
        const auto result = discover_censored_strings(source, {}, threads);
        EXPECT_EQ(names(result.domains), Names{"www.site.com"})
            << backend << " threads " << threads;
        EXPECT_TRUE(result.keywords.empty()) << backend;
      }
    }
  }
  records.push_back(
      record_of("WWW.SITE.COM", proxy::TrafficClass::kAllowed, kT0 + 99));
  const Backends host_allowed{records, "discovery_b"};
  for (const auto& [backend, source] : host_allowed.sources()) {
    for (const std::size_t threads : kThreadCounts) {
      const auto result = discover_censored_strings(source, {}, threads);
      EXPECT_EQ(names(result.keywords), Names{"forbiddenword"})
          << backend << " threads " << threads;
      EXPECT_TRUE(result.domains.empty()) << backend;
    }
  }
}

// --- derive -----------------------------------------------------------------

std::vector<std::uint32_t> stable_sorted(const std::vector<std::int64_t>& t) {
  std::vector<std::uint32_t> order(t.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::uint32_t a, std::uint32_t b) { return t[a] < t[b]; });
  return order;
}

TEST(IdPartials, RadixTimeOrderEqualsStableSort) {
  util::Rng rng{57};
  const auto random_times = [&](std::size_t n, std::int64_t lo,
                                std::uint64_t range) {
    std::vector<std::int64_t> times(n);
    for (auto& t : times)
      t = lo + static_cast<std::int64_t>(rng() % range);
    return times;
  };
  std::vector<std::vector<std::int64_t>> cases = {
      {},
      {42},
      {5, 5, 5, 5},
      random_times(5'000, kT0, 7),              // ties everywhere
      random_times(5'000, -90'000, 200'000),    // negative times
      random_times(5'000, kT0, 1ull << 20),     // two digits
      random_times(5'000, -(1ll << 40), 1ull << 41),  // span above 2^32
      {std::numeric_limits<std::int64_t>::max(), 0,
       std::numeric_limits<std::int64_t>::min(), -1, 0,
       std::numeric_limits<std::int64_t>::min()},  // the widest span
  };
  // Descending runs with repeats, as arrival order around a proxy's
  // clock step.
  std::vector<std::int64_t> runs;
  for (int run = 0; run < 50; ++run)
    for (int i = 100; i > 0; --i) runs.push_back(kT0 + run * 37 + i / 3);
  cases.push_back(runs);
  // Digits that differ only above bit 32, and only below it.
  std::vector<std::int64_t> wide;
  for (std::int64_t i = 0; i < 3'000; ++i)
    wide.push_back(((i % 5) << 33) + (i % 7) - (i % 3 == 0 ? (1ll << 34) : 0));
  cases.push_back(wide);
  // Over 2^16 times, so that each pass is split into several chunks.
  cases.push_back(random_times(300'000, kT0, 1ull << 21));
  cases.push_back(random_times(200'000, -(1ll << 50), 1ull << 51));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto want = stable_sorted(cases[c]);
    for (const std::size_t threads : kThreadCounts)
      EXPECT_EQ(stable_time_order(cases[c], threads), want)
          << "case " << c << " threads " << threads;
  }
}

/// Records whose times are adversarial for the sort (ties, descending
/// runs, negative times, a span above 2^32), with Duser and Ddenied
/// material among them.
std::vector<proxy::LogRecord> adversarial_log() {
  util::Rng rng{7};
  const std::vector<std::string> hosts = host_pool();
  std::vector<proxy::LogRecord> records;
  for (int i = 0; i < 30'000; ++i) {
    std::int64_t time = 0;
    switch (i % 5) {
      case 0: time = kT0 + static_cast<std::int64_t>(rng.uniform(9));
        break;
      case 1: time = kT0 + 86'400 - i; break;  // a descending run
      case 2: time = -static_cast<std::int64_t>(rng.uniform(1'000'000));
        break;
      case 3: time = (1ll << 33) + static_cast<std::int64_t>(rng.uniform(4));
        break;
      default: time = kT0 + static_cast<std::int64_t>(
                                rng.uniform(2 * util::kSecondsPerDay));
    }
    proxy::LogRecord record =
        record_of(hosts[rng.uniform(hosts.size())],
                  kClasses[rng.uniform(4)], time);
    record.proxy_index = static_cast<std::uint8_t>(rng.uniform(3));
    record.user_hash = rng.uniform(4) == 0 ? 0 : 1 + rng.uniform(50);
    records.push_back(std::move(record));
  }
  return records;
}

/// Dsample, Duser and Ddenied as derive_sources built them before: a
/// stable_sort of the gathered times, then masked() and filtered().
DerivedSources derive_the_old_way(const LogSource& full, std::uint64_t seed,
                                  std::size_t threads) {
  std::vector<std::int64_t> times;
  scan_increment(full, 0, [&](const Record& r) { times.push_back(r.time); });
  auto sample = std::make_shared<std::vector<std::uint8_t>>(times.size(), 0);
  util::Rng rng{util::mix64(seed ^ 0x5A3D1E)};
  for (const std::uint32_t ordinal : stable_sorted(times))
    (*sample)[ordinal] = rng.bernoulli(0.04) ? 1 : 0;
  return DerivedSources{
      full, full.masked(std::move(sample), threads),
      full.filtered(
          [](const Record& r) {
            if (r.proxy_index != 0 || r.user_hash == 0) return false;
            const auto c = util::to_civil(r.time);
            return c.month == 7 && (c.day == 22 || c.day == 23);
          },
          threads),
      full.filtered(
          [](const Record& r) {
            return r.exception != proxy::ExceptionId::kNone;
          },
          threads)};
}

void expect_same_view(const LogSource& want, const LogSource& got,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  EXPECT_GT(got.rows(), 0u) << what;
  EXPECT_EQ(got.time_bounds().first, want.time_bounds().first) << what;
  EXPECT_EQ(got.time_bounds().last, want.time_bounds().last) << what;
  const auto ordinals = [](const LogSource& view) {
    std::vector<std::uint64_t> out;
    scan_increment(view, 0, [&](const Record& r) { out.push_back(r.ordinal); });
    return out;
  };
  EXPECT_EQ(ordinals(got), ordinals(want)) << what;
}

TEST(IdPartials, DerivedViewsEqualTheMaskedAndFilteredViews) {
  const Backends backends{adversarial_log(), "adversarial"};
  for (const auto& [backend, full] : backends.sources()) {
    for (const std::uint64_t seed : {std::uint64_t{2011}, std::uint64_t{57}}) {
      const DerivedSources want = derive_the_old_way(full, seed, 1);
      for (const std::size_t threads : kThreadCounts) {
        const DerivedSources got = derive_sources(full, seed, threads);
        const std::string where = std::string(backend) + " seed " +
                                  std::to_string(seed) + " threads " +
                                  std::to_string(threads);
        expect_same_view(want.sample, got.sample, "Dsample " + where);
        expect_same_view(want.user, got.user, "Duser " + where);
        expect_same_view(want.denied, got.denied, "Ddenied " + where);
      }
    }
  }
}

}  // namespace
