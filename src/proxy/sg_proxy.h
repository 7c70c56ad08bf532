#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "fault/schedule.h"
#include "obs/context.h"
#include "policy/rule.h"
#include "policy/syria.h"
#include "proxy/cache.h"
#include "proxy/error_model.h"
#include "proxy/log_record.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace syrwatch::proxy {

/// Tunables for one SG-9000 instance.
struct SgProxyConfig {
  std::size_t cache_capacity = 60'000;
  /// Seconds a cached response stays servable (0 = forever). The short
  /// default keeps the PROXIED share near the leak's 0.47% even for very
  /// hot URLs.
  std::int64_t cache_ttl_seconds = 7200;
  /// Admission probability for successfully observed *cacheable* (static)
  /// responses; dynamic content is never admitted.
  double observed_admit_prob = 0.5;
  /// Admission probability for policy decisions (censored URLs do show up
  /// as PROXIED in the leak, at ~0.03–0.3% of their censored volume).
  double policy_admit_prob = 0.002;
  /// Share of cacheable hits reported 304 instead of 200.
  double not_modified_prob = 0.08;
  /// TLS interception (Blue Coat supports it; the leak shows it was OFF —
  /// §4 finds no cs-uri-path/-query in HTTPS records). When enabled, the
  /// tunnelled request's path/query become visible to the policy and the
  /// log, enabling page-level censorship of HTTPS.
  bool intercept_https = false;
  ErrorRates error_rates{};
};

/// One Blue Coat SG-9000: transparent application-level interception.
///
/// Pipeline per request (§3.2): response-cache lookup (hit -> PROXIED,
/// replaying the stored outcome), local custom-category assignment, policy
/// evaluation (deny/redirect -> DENIED with the policy exception), then the
/// fetch attempt with stochastic network failures, and finally OBSERVED.
class SgProxy {
 public:
  SgProxy(std::uint8_t index, const policy::ProxyPolicy* policy,
          const policy::CustomCategoryList* custom_categories,
          const SgProxyConfig& config, util::Rng rng);

  SgProxy(SgProxy&&) = default;

  std::uint8_t index() const noexcept { return index_; }
  std::string name() const { return policy::proxy_name(index_); }

  /// Filters one request and returns the resulting log line. The
  /// request's strings move into the record: pass an rvalue to spare the
  /// copies, an lvalue is copied.
  LogRecord process(Request request);

  /// Wires the fault layer in: brownout windows covering this proxy scale
  /// its network-error rates per request. nullptr (the default) keeps the
  /// appliance permanently healthy. Configure before traffic starts; the
  /// schedule must outlive the proxy.
  void set_fault_schedule(const fault::FaultSchedule* faults) noexcept {
    faults_ = faults;
  }

  /// Attaches the observability layer: farm-wide event counters (cache
  /// hit/miss, policy decisions by rule kind, error-model draws) are
  /// resolved once here, so process() pays one pointer test per event —
  /// and literally nothing when detached (the default). Counters never
  /// touch the proxy's RNG or caches, so attaching a registry cannot
  /// change the emitted log (DESIGN.md §4.7). nullptr detaches.
  void set_obs(obs::Context* ctx);

  std::uint64_t processed() const noexcept { return processed_; }
  const ResponseCache& cache() const noexcept { return cache_; }

  /// Checkpoint support: appends this appliance's mutable state (RNG
  /// words, processed count, cache content + tallies) to `out` in the
  /// length-prefixed binary layout of util/byte_io.h. Configuration is
  /// NOT serialized — a restored proxy must be constructed with the same
  /// policy/config, which the run manifest's config fingerprint enforces.
  void append_state(std::string& out) const;

  /// Restores state previously written by append_state, reading from the
  /// cursor. Throws std::runtime_error on truncated or invalid bytes.
  void restore_state(util::ByteReader& reader);

 private:
  /// Pre-resolved instruments, all nullptr when detached. Shared across
  /// the farm's proxies (same registry names), bumped with relaxed atomics
  /// from concurrent per-proxy workers.
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* policy_denied = nullptr;
    obs::Counter* policy_redirect = nullptr;
    obs::Counter* error_draws = nullptr;
    obs::Counter* error_failures = nullptr;
    obs::Counter* dest_unreachable = nullptr;
    obs::Counter* served = nullptr;
    std::array<obs::Counter*, policy::kRuleKindCount> rule_hits{};
  };

  std::uint8_t index_;
  const policy::ProxyPolicy* policy_;
  const policy::CustomCategoryList* custom_categories_;
  SgProxyConfig config_;
  ResponseCache cache_;
  /// The cache key of the request in process(): one buffer, reused.
  std::string url_key_;
  ErrorModel errors_;
  const fault::FaultSchedule* faults_ = nullptr;
  util::Rng rng_;
  std::uint64_t processed_ = 0;
  Instruments obs_;
};

}  // namespace syrwatch::proxy
