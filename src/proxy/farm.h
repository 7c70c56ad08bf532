#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/schedule.h"
#include "obs/context.h"
#include "policy/syria.h"
#include "proxy/sg_proxy.h"

namespace syrwatch::proxy {

/// Load-balancing front of the seven-proxy deployment.
///
/// Baseline routing hashes the client onto a home proxy, which spreads
/// load evenly (Fig. 7a) and keeps each user's traffic on one appliance
/// (the premise of the Duser analysis — a per-proxy log contains whole
/// users). On top of that, *domain affinity* redirects traffic for
/// configured domains to designated proxies, reproducing §5.2's finding
/// that >95% of metacafe.com requests land on SG-48 and that proxies
/// specialize in censoring particular content.
///
/// With a fault schedule attached, routing becomes health-aware: a request
/// whose home (or affinity) proxy is down at request time fails over to a
/// surviving proxy via rendezvous hashing keyed on (farm seed, user,
/// candidate proxy). The choice is stateless and time-free, so one user's
/// outage traffic sticks to one survivor (Duser's locality premise holds
/// piecewise), healthy-period routing is untouched, and the decision stays
/// a pure function of the request — the thread-count-invariance contract.
class ProxyFarm {
 public:
  ProxyFarm(const policy::SyriaPolicy* policy, const SgProxyConfig& config,
            std::uint64_t seed);

  /// Routes `fraction` of traffic for `domain` (and subdomains) to the
  /// proxy; leftovers fall back to the client's home proxy. Multiple
  /// entries per domain stack (fractions should sum to <= 1). Not safe to
  /// call concurrently with route()/process(): configure affinities before
  /// traffic starts.
  void add_affinity(std::string domain, std::size_t proxy_index,
                    double fraction);

  /// Attaches the fault layer. An empty (or null) schedule keeps routing
  /// bit-identical to the fault-free build; a non-empty one enables
  /// failover and per-proxy brownouts. Configure before traffic starts;
  /// the schedule must outlive the farm.
  void set_fault_schedule(const fault::FaultSchedule* faults);

  /// Attaches the observability layer to the farm and every proxy.
  /// Routing counters (route calls, affinity redirects, failovers) resolve
  /// here once; route() stays const, allocation-free, and — since counters
  /// are relaxed atomics that feed no decision — a pure function of the
  /// request. nullptr detaches. Configure before traffic starts.
  void set_obs(obs::Context* ctx);

  /// The proxy that would handle this request. A pure function of the
  /// request and the farm seed: the affinity draw comes from a stateless
  /// seed-keyed hash of (user, time, host) rather than a shared sequential
  /// RNG, so routing is const, allocation-free on the domain-suffix walk
  /// (heterogeneous string_view lookup), and safe to call from concurrent
  /// generation shards without affecting the determinism contract. It
  /// writes no farm state: when `diverted` is non-null it is set to
  /// whether the request failed over off a down proxy, and the caller
  /// decides when that diversion counts (add_failovers).
  std::size_t route(const Request& request,
                    bool* diverted = nullptr) const noexcept;

  /// Routes, tallies a diversion, and filters. Unlike route(), this
  /// advances the chosen proxy's cache and RNG, so it must not run
  /// concurrently with anything else touching the farm (the pipeline
  /// instead routes in SyriaScenario::generate_batch and processes per
  /// proxy in SyriaScenario::run).
  LogRecord process(const Request& request);

  SgProxy& proxy(std::size_t index) { return proxies_.at(index); }
  const SgProxy& proxy(std::size_t index) const { return proxies_.at(index); }
  std::size_t proxy_count() const noexcept { return proxies_.size(); }

  /// Requests diverted away from a down proxy since construction: the
  /// diversions process() routed, plus those add_failovers() counted.
  std::uint64_t failover_total() const noexcept { return failover_total_; }

  /// Diverted requests that landed on `index` as the failover target.
  std::uint64_t failovers_to(std::size_t index) const {
    return failovers_to_.at(index);
  }

  /// Counts `count` diversions onto proxy `target`. SyriaScenario::run
  /// adds a batch's diversions once the batch is committed to processing,
  /// so a batch that cancellation discards never counts. Not safe to call
  /// concurrently with save_state() or another add_failovers().
  void add_failovers(std::size_t target, std::uint64_t count) {
    failovers_to_.at(target) += count;
    failover_total_ += count;
  }

  /// Checkpoint support: serializes every proxy's mutable state (RNGs,
  /// caches, counters) plus the farm's failover tallies into an opaque
  /// blob. Routing configuration (policy, affinities, fault schedule) is
  /// NOT included — a restoring caller must rebuild the farm from the same
  /// ScenarioConfig first; the run manifest's config fingerprint guards
  /// that invariant. Not safe to call concurrently with process(). The
  /// blob is written over `out`, whose capacity is reused: a checkpointer
  /// that snapshots every commit into one buffer allocates only while the
  /// state grows.
  void save_state(std::string& out) const;

  /// Restores a blob produced by save_state() on an identically
  /// configured farm. Throws std::runtime_error on truncation, damage, or
  /// a proxy-count mismatch; the farm is then unusable for resumption
  /// (rebuild it) but safe to destroy.
  void restore_state(std::string_view bytes);

 private:
  struct AffinityTarget {
    std::size_t proxy_index;
    double fraction;
  };

  /// Heterogeneous hashing so route() can probe with each string_view
  /// suffix of the host without materializing a std::string per probe.
  struct TransparentStringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept;
  };

  /// Rendezvous hash over the proxies that are up at request time. Falls
  /// back to `home` when the whole farm is down (the traffic has nowhere
  /// else to go; the coverage analyzer will show the resulting blackout).
  std::size_t failover_target(const Request& request,
                              std::size_t home) const noexcept;

  std::vector<SgProxy> proxies_;
  std::unordered_map<std::string, std::vector<AffinityTarget>,
                     TransparentStringHash, std::equal_to<>>
      affinities_;
  std::uint64_t route_salt_;
  const fault::FaultSchedule* faults_ = nullptr;
  std::uint64_t failover_total_ = 0;
  std::vector<std::uint64_t> failovers_to_;
  // Observability instruments (nullptr when detached); counters observe,
  // they never steer.
  obs::Counter* obs_route_calls_ = nullptr;
  obs::Counter* obs_affinity_routed_ = nullptr;
  obs::Counter* obs_failovers_ = nullptr;
};

}  // namespace syrwatch::proxy
