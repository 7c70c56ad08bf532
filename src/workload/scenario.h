#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "category/categorizer.h"
#include "fault/schedule.h"
#include "geo/geoip.h"
#include "obs/context.h"
#include "geo/world.h"
#include "policy/syria.h"
#include "proxy/farm.h"
#include "tor/relay_directory.h"
#include "util/cancel.h"
#include "workload/catalog.h"
#include "workload/components.h"
#include "workload/diurnal.h"
#include "workload/torrents.h"
#include "workload/users.h"

namespace syrwatch::workload {

/// Knobs of the synthetic Summer-2011 deployment. Defaults generate about
/// 1.5M requests over the nine observation days — roughly a 1:500 scale
/// model of the leak's 751M — which keeps every analysis statistically
/// meaningful while a full study runs in seconds.
struct ScenarioConfig {
  std::uint64_t seed = 2011;
  /// Requests generated across all days *before* the leak filter (which
  /// keeps only SG-42's log on the July days, as the real leak does).
  std::uint64_t total_requests = 1'500'000;
  std::size_t user_population = 40'000;
  std::size_t catalog_tail = 30'000;
  /// Share of browsing volume carried by the Zipf tail. Calibrated so the
  /// pinned head's shares of *allowed* traffic land on Table 4 (google.com
  /// ~7.2%) — the leak's long tail carries roughly half the volume.
  double catalog_tail_weight = 0.52;
  std::size_t relay_count = 1'111;   // §7.1's observed relay count
  std::size_t torrent_contents = 4'000;
  proxy::SgProxyConfig proxy_config{};
  /// Reproduce the leak's shape: July days keep only SG-42, client hashes
  /// survive only on July 22–23. Disable to study the uncut logs.
  bool apply_leak_filter = true;
  std::int64_t slot_seconds = 300;
  /// Domain-affinity routing (metacafe/skype/... pinned to SG-48/SG-45,
  /// wikimedia to SG-47). Disable for the proxy-specialization ablation:
  /// without it Table 6's structure collapses to uniform similarity.
  bool enable_affinity = true;
  /// Per-component volume multipliers, keyed by Component::name(). The
  /// paper's rarest phenomena (Table 12's subnet hits, Tor censorship,
  /// policy redirects) number in the hundreds out of 751M requests; at
  /// reduced scale a bench studying them boosts the relevant component
  /// (e.g. {"israel", 30.0}) and reports counts normalized back. Boosting
  /// perturbs the global Table 3 proportions, so headline-statistics runs
  /// should leave this empty.
  std::map<std::string, double> share_boosts;
  /// Worker threads for the generate→route→process pipeline (also reused
  /// by core::Study and the report renderers for the analysis fan-out).
  /// 0 = one per hardware thread. The emitted log is bit-identical for
  /// every value (DESIGN.md §4.5): request generation is sharded by
  /// (day, slot) with per-(day, slot, component) child RNG streams, each
  /// proxy consumes its own queue in a fixed global order, and shard
  /// buffers merge back into generation order before reaching the sink.
  std::size_t threads = 0;
  /// Named fault profile (fault::make_profile) injected into the farm:
  /// proxy outages with deterministic failover, brownouts, flapping.
  /// "none" (the default) keeps the fault layer inert and the log
  /// bit-identical to a fault-free build; any profile preserves the
  /// thread-count-invariance contract (DESIGN.md §4.6).
  std::string fault_profile = "none";
};

using LogCallback = std::function<void(const proxy::LogRecord&)>;

/// The lookup tables an analysis of the log consults — GeoIP ranges, the
/// Tor relay directory and the torrent registry — deterministic in the
/// config. SyriaScenario holds one; `syrwatchctl report` builds only this.
class Environment {
 public:
  explicit Environment(const ScenarioConfig& config);

  const tor::RelayDirectory& relays() const noexcept { return relays_; }
  const TorrentRegistry& torrents() const noexcept { return torrents_; }
  const geo::GeoIpDb& geoip() const noexcept { return geoip_; }

 private:
  tor::RelayDirectory relays_;
  TorrentRegistry torrents_;
  geo::GeoIpDb geoip_;
};

/// Routed traffic of one (day, slot) generation shard, before any proxy
/// has seen it: phase 1's output.
struct RoutedShard {
  std::vector<proxy::Request> requests;  ///< generation order
  std::vector<std::uint8_t> proxy_of;    ///< routing decision per request
  /// Generation sequence of each request within its shard, the low half
  /// of its merge key. Empty when `requests` is the whole shard, so that
  /// requests[k] has sequence k; a sharded worker's copy holds only its
  /// own proxies' requests and keeps their sequences here.
  std::vector<std::uint32_t> sequence;
};

/// Phase 1 of one batch: shards[i] is generation shard
/// index * kShardsPerBatch + i.
struct RoutedBatch {
  std::size_t index = 0;
  std::vector<RoutedShard> shards;
  /// Requests routing diverted off a down proxy, by failover target.
  /// run() adds them to the farm's tallies once the batch is committed to
  /// processing; a batch decoded from a shard frame carries none (the
  /// coordinator's routing saw them).
  std::array<std::uint64_t, policy::kProxyCount> failovers{};
};

/// Knobs for a controlled run: cooperative cancellation, batch-granular
/// resumption, and a per-batch completion hook — the surface the durable
/// checkpoint layer drives. None of these can change *what* a batch emits
/// (generation is a pure function of the shard ordinal; proxy state
/// advances in fixed batch order), only which batches execute.
struct RunControl {
  /// Polled at batch boundaries and inside the parallel phases; when it
  /// fires, run() returns false without emitting the in-flight batch.
  const util::CancelToken* cancel = nullptr;
  /// First batch to execute; earlier batches are skipped entirely. The
  /// caller owns restoring the farm's mutable state to the value it held
  /// at this boundary (proxy::ProxyFarm::restore_state) — generation
  /// shards need no restoration, their RNG streams derive from ordinals.
  std::size_t start_batch = 0;
  /// Invoked on the calling thread after each batch's records reached the
  /// sink, with the index of the completed batch; a checkpointer commits
  /// its batch here. The farm is exactly as the batch left it: the next
  /// batch may be generating meanwhile, but no proxy advances and no
  /// tally moves until on_batch returns. May throw — the exception
  /// propagates out of run() (that is exactly what a mid-run crash looks
  /// like to a resumer).
  std::function<void(std::size_t completed_batch)> on_batch;
  /// Bitmask of farm proxies this run processes (bit p = proxy index p).
  /// Requests routed to an unowned proxy are never processed, so that
  /// proxy's sequential state (cache, RNG) never advances and the
  /// emitted log is exactly the owned proxies' sub-log of the full run, in
  /// the full run's order. All-ones (the default) is the whole farm; 0
  /// runs generation and routing alone.
  std::uint64_t proxy_mask = ~std::uint64_t{0};
  /// Where each batch's routed requests come from. Unset, the run
  /// generates them itself (generate_batch). A shard worker (src/shard)
  /// sets it to read batch `b` from its coordinator: the hook fills
  /// `batch` with batch b's requests and returns true, or returns false
  /// when no more input will come, which stops the run like a
  /// cancellation, before any proxy sees the batch. The hook may throw;
  /// the exception propagates out of run(). With more than one thread it
  /// is called off the calling thread, while the sink and on_batch run
  /// for the previous batch: it must touch nothing those touch.
  std::function<bool(std::size_t b, RoutedBatch& batch)> batch_source;
  /// Optional keyed tap, invoked immediately before `sink` for every
  /// emitted record with the record's deterministic merge key
  /// ((shard ordinal << 32) | generation sequence). Keys are what the
  /// multi-process k-way merge sorts by: they total-order the records of
  /// any proxy_mask sub-log exactly as the unsharded run would have
  /// emitted them.
  std::function<void(std::uint64_t key, const proxy::LogRecord& record)>
      keyed_sink;
};

/// The complete simulated ecosystem: users, sites, relays, torrents, the
/// inferred censorship policy, the seven-proxy farm with its domain
/// affinities, and the traffic components. `run()` streams the "leaked"
/// log to a sink; everything is deterministic in the seed.
class SyriaScenario {
 public:
  explicit SyriaScenario(ScenarioConfig config = {});

  /// Generation shards are committed in fixed-size batches of this many
  /// (day, slot) shards: the unit of peak-memory bounding, of the
  /// checkpoint layer's durability, and of resumption granularity.
  static constexpr std::size_t kShardsPerBatch = 128;

  /// Batches a full run executes — ceil(shards / kShardsPerBatch), a pure
  /// function of the config (observation days × slots per day).
  std::size_t batch_count() const noexcept;

  /// Phase 1 of run() for batch `b`: generates each of its shards and
  /// routes every request, summing the diversions into batch.failovers. A
  /// pure function of the config and `b` that writes no farm state, so
  /// any process holding an identically configured scenario produces the
  /// same batch, in any order and as often as it likes (only the obs
  /// counters count every call). Uses config().threads workers. Returns
  /// false when `cancel` fired first; `batch` is then incomplete and must
  /// not be processed.
  bool generate_batch(std::size_t b, RoutedBatch& batch,
                      const util::CancelToken* cancel = nullptr) const;

  /// Generates the whole observation window. Uses config().threads
  /// workers; the sink is always invoked from the calling thread, in
  /// deterministic (day, slot, component, sequence) order, regardless of
  /// the thread count.
  void run(const LogCallback& sink);

  /// Controlled variant: honors control.cancel, starts at
  /// control.start_batch, takes batches from control.batch_source when
  /// set, and reports batch completions via control.on_batch. Returns true
  /// when the window completed, false when cancellation (or the end of the
  /// batch source) stopped it early (the sink then saw a whole number of
  /// batches — never a partial one).
  ///
  /// With threads > 1, phase 1 of batch k+1 (generate or batch_source, on
  /// threads − 1 workers of a helper thread) runs while the calling
  /// thread merges batch k into the sink and runs on_batch(k); phase 2
  /// then runs alone on every thread (DESIGN.md §4.5). An exception from
  /// the sink or on_batch waits for that phase 1 before it propagates; one
  /// from phase 1 propagates after on_batch(k) returned.
  bool run(const LogCallback& sink, const RunControl& control);

  /// Attaches the observability layer to the pipeline and the farm: stage
  /// timers for the generate / process / merge phases and event counters
  /// throughout. A null context (the default) keeps run() on the exact
  /// pre-obs code path; an attached registry never touches an RNG stream,
  /// so the emitted log is byte-identical either way (DESIGN.md §4.7).
  /// Attach before run(); the context must outlive the scenario.
  void set_obs(obs::Context* ctx) {
    obs_ = ctx;
    farm_.set_obs(ctx);
  }
  obs::Context* obs_context() const noexcept { return obs_; }

  const ScenarioConfig& config() const noexcept { return config_; }
  const UserModel& users() const noexcept { return users_; }
  const DomainCatalog& catalog() const noexcept { return catalog_; }
  const tor::RelayDirectory& relays() const noexcept {
    return environment_.relays();
  }
  const TorrentRegistry& torrents() const noexcept {
    return environment_.torrents();
  }
  const geo::GeoIpDb& geoip() const noexcept { return environment_.geoip(); }
  const category::Categorizer& categorizer() const noexcept {
    return categorizer_;
  }
  const policy::SyriaPolicy& policy() const noexcept { return policy_; }
  proxy::ProxyFarm& farm() noexcept { return farm_; }
  const proxy::ProxyFarm& farm() const noexcept { return farm_; }
  /// The injected fault timeline (empty for the "none" profile).
  const fault::FaultSchedule& faults() const noexcept { return faults_; }
  const DiurnalModel& diurnal() const noexcept { return diurnal_; }
  const std::vector<std::unique_ptr<Component>>& components() const noexcept {
    return components_;
  }

 private:
  /// One (day, slot) unit of work for the generation phase.
  struct SlotPlan {
    std::int64_t start = 0;
    double base = 0.0;  ///< expected requests for an all-components share 1
    bool filtered_day = false;  ///< leak keeps only SG-42 on this day
    bool keep_hashes = true;    ///< client hashes survive only on July 22–23
  };

  /// generate_batch on `threads` workers.
  bool generate_on(std::size_t b, RoutedBatch& batch,
                   const util::CancelToken* cancel,
                   std::size_t threads) const;

  ScenarioConfig config_;
  UserModel users_;
  DomainCatalog catalog_;
  Environment environment_;
  category::Categorizer categorizer_;
  policy::SyriaPolicy policy_;
  proxy::ProxyFarm farm_;
  /// Owned by the scenario so farm/proxy pointers into it stay valid for
  /// the scenario's lifetime. Built before traffic starts; immutable after.
  fault::FaultSchedule faults_;
  DiurnalModel diurnal_;
  std::vector<std::unique_ptr<Component>> components_;
  obs::Context* obs_ = nullptr;
  /// Root of the per-(day, slot, component) RNG streams. Never advanced:
  /// run() only derives children via Rng::split, so generation shards are
  /// independent of each other and of execution order.
  util::Rng stream_root_;
  /// Slot plan, day-major: the position in this vector is the shard
  /// ordinal, which seeds the per-shard RNG streams and forms the high
  /// half of the merge key.
  std::vector<SlotPlan> plan_;
  /// Each component's share boost (config.share_boosts), by component.
  std::vector<double> boosts_;
};

}  // namespace syrwatch::workload
