#include "workload/scenario.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/profiles.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/simtime.h"

namespace syrwatch::workload {

namespace {

// Base volume shares, calibrated so the global Table 3 split (93.25%
// allowed / 0.98% censored) and the per-domain censored shares of Table 4
// come out of the simulation rather than being asserted. See DESIGN.md.
constexpr double kToolbarShare = 0.00060;
constexpr double kCollateralShare = 0.00142;
constexpr double kAdsCdnShare = 0.00070;
constexpr double kGoogleCacheShare = 0.0000065;
constexpr double kFbPluginsShare = 0.00215;
constexpr double kFbPagesShare = 0.0000115;
constexpr double kRedirectHostsShare = 0.0000174;
constexpr double kOsnShare = 0.0049;
constexpr double kImShare = 0.00150;
constexpr double kStreamingShare = 0.00215;
constexpr double kSuspectedShare = 0.000855;
constexpr double kIsraelShare = 0.000314;
constexpr double kDirectIpShare = 0.01545;
constexpr double kAnonymizerShare = 0.00240;
constexpr double kHttpsShare = 0.0008;
constexpr double kTorShare = 0.000126;
constexpr double kBitTorrentShare = 0.00045;

constexpr double kSpecialsTotal =
    kToolbarShare + kCollateralShare + kAdsCdnShare + kGoogleCacheShare +
    kFbPluginsShare + kFbPagesShare + kRedirectHostsShare + kOsnShare +
    kImShare + kStreamingShare + kSuspectedShare + kIsraelShare +
    kDirectIpShare + kAnonymizerShare + kHttpsShare + kTorShare +
    kBitTorrentShare;

}  // namespace

Environment::Environment(const ScenarioConfig& config)
    : relays_(tor::RelayDirectory::synthesize(config.relay_count,
                                              config.seed ^ 0x7042)),
      torrents_(config.torrent_contents, config.seed),
      geoip_(geo::build_world_geoip()) {}

SyriaScenario::SyriaScenario(ScenarioConfig config)
    : config_(config),
      users_(config.user_population, config.seed),
      catalog_(config.catalog_tail, config.catalog_tail_weight, config.seed),
      environment_(config),
      policy_(policy::build_syria_policy(relays(), config.seed)),
      farm_(&policy_, config.proxy_config, config.seed),
      faults_(fault::make_profile(config.fault_profile, config.seed)),
      stream_root_(util::mix64(config.seed ^ 0x5C3A)) {
  catalog_.register_categories(categorizer_);

  // Fault layer: the farm ignores an empty schedule entirely, so the
  // default "none" profile emits a log bit-identical to a fault-free
  // build.
  farm_.set_fault_schedule(&faults_);

  // Domain affinity (§5.2): >95% of metacafe on SG-48; IM and the other
  // specialized domains split between SG-48 and SG-45 (the proxy pair with
  // the 0.67 cosine similarity of Table 6); wikimedia pinned to SG-47,
  // which makes SG-47 dissimilar from everyone.
  if (config_.enable_affinity) {
  farm_.add_affinity("metacafe.com", policy::kAffinityProxy, 0.955);
  farm_.add_affinity("metacafe.com", 3, 0.045);
  farm_.add_affinity("skype.com", policy::kAffinityProxy, 0.50);
  farm_.add_affinity("skype.com", 3, 0.42);                // SG-45
  farm_.add_affinity("messenger.live.com", policy::kAffinityProxy, 0.45);
  farm_.add_affinity("messenger.live.com", 3, 0.45);
  farm_.add_affinity("ceipmsn.com", 3, 0.60);
  farm_.add_affinity("ceipmsn.com", policy::kAffinityProxy, 0.35);
  farm_.add_affinity("trafficholder.com", policy::kAffinityProxy, 0.50);
  farm_.add_affinity("trafficholder.com", 3, 0.40);
  farm_.add_affinity("wikimedia.org", 5, 0.85);            // SG-47
  farm_.add_affinity("dailymotion.com", 5, 0.55);
  }

  components_.push_back(
      make_browsing(1.0 - kSpecialsTotal, &users_, &catalog_));
  components_.push_back(make_google_toolbar(kToolbarShare, &users_));
  components_.push_back(
      make_collateral_apps(kCollateralShare, &users_, &categorizer_));
  components_.push_back(make_ads_cdn(kAdsCdnShare, &users_, &categorizer_));
  components_.push_back(make_google_cache(kGoogleCacheShare, &users_));
  components_.push_back(make_facebook_plugins(kFbPluginsShare, &users_));
  components_.push_back(make_facebook_pages(kFbPagesShare, &users_));
  components_.push_back(make_redirect_hosts(kRedirectHostsShare, &users_));
  components_.push_back(
      make_osn_browsing(kOsnShare, &users_, &categorizer_));
  components_.push_back(make_im(kImShare, &users_, &categorizer_));
  components_.push_back(make_streaming(kStreamingShare, &users_,
                                       &categorizer_));
  components_.push_back(
      make_suspected_misc(kSuspectedShare, &users_, &categorizer_));
  components_.push_back(make_israel(kIsraelShare, &users_, &geoip(),
                                    &categorizer_, config_.seed));
  components_.push_back(
      make_direct_ip(kDirectIpShare, &users_, &geoip(), config_.seed));
  components_.push_back(make_anonymizers(kAnonymizerShare, &users_,
                                         &categorizer_, config_.seed));
  components_.push_back(
      make_https_connect(kHttpsShare, &users_, &geoip(), config_.seed));
  components_.push_back(make_tor(kTorShare, &users_, &relays()));
  components_.push_back(make_bittorrent(kBitTorrentShare, &users_,
                                        &torrents(), &categorizer_));

  // Resolve each component's share boost once: probing the map with a
  // freshly allocated std::string key inside the slot loop was one heap
  // allocation per component per slot per day.
  boosts_.assign(components_.size(), 1.0);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const auto it =
        config_.share_boosts.find(std::string(components_[c]->name()));
    if (it != config_.share_boosts.end()) boosts_[c] = it->second;
  }

  // Normalize the diurnal curve over the whole window so the base shares
  // integrate to the configured total. Everything downstream of the plan
  // is a pure function of the shard ordinal, so the emitted log is
  // invariant to the thread count.
  const auto& days = observation_days();
  const std::int64_t slot = config_.slot_seconds;
  const auto slots_per_day =
      static_cast<std::size_t>(util::kSecondsPerDay / slot);
  double norm = 0.0;
  for (const std::int64_t day : days) {
    for (std::size_t s = 0; s < slots_per_day; ++s)
      norm += diurnal_.intensity(day + static_cast<std::int64_t>(s) * slot +
                                 slot / 2);
  }
  plan_.reserve(days.size() * slots_per_day);
  const double total = static_cast<double>(config_.total_requests);
  for (const std::int64_t day : days) {
    const bool filtered_day = config_.apply_leak_filter && sg42_only_day(day);
    const bool keep_hashes = !config_.apply_leak_filter || user_hash_day(day);
    for (std::size_t s = 0; s < slots_per_day; ++s) {
      const std::int64_t start = day + static_cast<std::int64_t>(s) * slot;
      const double base =
          total * diurnal_.intensity(start + slot / 2) / norm;
      plan_.push_back({start, base, filtered_day, keep_hashes});
    }
  }
}

namespace {

/// A filtered log line tagged with its deterministic merge key:
/// (shard ordinal << 32) | sequence-within-shard. Keys are unique because
/// each (shard, sequence) pair lands on exactly one proxy.
struct Processed {
  std::uint64_t key = 0;
  proxy::LogRecord record;
};

}  // namespace

std::size_t SyriaScenario::batch_count() const noexcept {
  return (plan_.size() + kShardsPerBatch - 1) / kShardsPerBatch;
}

bool SyriaScenario::generate_batch(std::size_t b, RoutedBatch& batch,
                                   const util::CancelToken* cancel) const {
  return generate_on(b, batch, cancel,
                     util::resolve_threads(config_.threads));
}

bool SyriaScenario::generate_on(std::size_t b, RoutedBatch& batch,
                                const util::CancelToken* cancel,
                                std::size_t threads) const {
  const std::size_t batch_start = b * kShardsPerBatch;
  if (batch_start >= plan_.size())
    throw std::out_of_range("SyriaScenario::generate_batch: batch " +
                            std::to_string(b) + " of " +
                            std::to_string(batch_count()));
  const std::size_t n_shards =
      std::min(kShardsPerBatch, plan_.size() - batch_start);
  const std::int64_t slot = config_.slot_seconds;
  const std::size_t n_components = components_.size();
  obs::StageStats* const gen_stage =
      obs::stage(obs_, "scenario.generate_shard");
  obs::Counter* const generated = obs::counter(obs_, "scenario.generated");

  batch.index = b;
  batch.shards.resize(n_shards);
  std::array<std::atomic<std::uint64_t>, policy::kProxyCount> failovers{};
  // One shard per work item. Each (shard, component) pair owns an
  // independent child RNG, so shards never contend and the draw sequence
  // is execution-order-free.
  const bool complete = util::parallel_for(
      n_shards, threads,
      [&](std::size_t i) {
        const obs::StageTimer timer{gen_stage};
        const std::size_t ordinal = batch_start + i;
        const SlotPlan& sp = plan_[ordinal];
        RoutedShard& shard = batch.shards[i];
        shard.requests.clear();
        shard.proxy_of.clear();
        shard.sequence.clear();
        std::array<std::uint64_t, policy::kProxyCount> diverted{};
        const std::int64_t mid = sp.start + slot / 2;
        for (std::size_t c = 0; c < n_components; ++c) {
          util::Rng rng = stream_root_.split(
              static_cast<std::uint64_t>(ordinal) * n_components + c);
          const double mean = sp.base * components_[c]->share() *
                              boosts_[c] * components_[c]->modulation(mid);
          const std::uint64_t count = rng.poisson(mean);
          for (std::uint64_t k = 0; k < count; ++k) {
            const std::int64_t t =
                sp.start + static_cast<std::int64_t>(rng.uniform(
                               static_cast<std::uint64_t>(slot)));
            proxy::Request request = components_[c]->generate(t, rng);
            bool failed_over = false;
            const std::size_t target = farm_.route(request, &failed_over);
            if (failed_over) ++diverted[target];
            shard.proxy_of.push_back(static_cast<std::uint8_t>(target));
            shard.requests.push_back(std::move(request));
          }
        }
        for (std::size_t p = 0; p < diverted.size(); ++p)
          if (diverted[p] != 0)
            failovers[p].fetch_add(diverted[p], std::memory_order_relaxed);
        obs::add(generated, shard.requests.size());
      },
      cancel);
  for (std::size_t p = 0; p < failovers.size(); ++p)
    batch.failovers[p] = failovers[p].load(std::memory_order_relaxed);
  return complete;
}

void SyriaScenario::run(const LogCallback& sink) { run(sink, RunControl{}); }

bool SyriaScenario::run(const LogCallback& sink, const RunControl& control) {
  const std::size_t threads = util::resolve_threads(config_.threads);
  const std::size_t n_proxies = farm_.proxy_count();
  const std::size_t end = batch_count();

  // Observability instruments, all nullptr when detached. Stage timers run
  // at shard/batch granularity (never per request) so the < 2% overhead
  // budget of DESIGN.md §4.7 holds; counters are relaxed atomics that no
  // simulated decision reads, so the emitted log is identical either way.
  obs::StageStats* const proc_stage =
      obs::stage(obs_, "scenario.process_proxy_batch");
  obs::StageStats* const merge_stage = obs::stage(obs_, "scenario.merge");
  obs::Counter* const emitted = obs::counter(obs_, "scenario.emitted");
  if (obs_ != nullptr) {
    obs_->registry().gauge("scenario.threads").set(
        static_cast<double>(threads));
  }

  // Shards are produced and consumed in fixed-size batches so peak memory
  // stays bounded by the batch, not the whole observation window. Batch
  // boundaries cannot affect results: RNG streams derive from the shard
  // ordinal and per-proxy processing order follows the merge key. The
  // batch is also the durability unit — control.start_batch skips whole
  // batches on resume, and cancellation never emits a partial one.
  // One batch and one set of per-proxy outputs serve the whole run: phase
  // 2 moves the batch's requests into records, after which phase 1 of the
  // next batch refills it while phase 3 drains the outputs.
  RoutedBatch batch;
  std::vector<std::vector<Processed>> per_proxy(n_proxies);

  // Phase 1 — generate + route batch b into `batch` on `workers` threads,
  // here or in the process feeding us. False when cancellation or the end
  // of the batch source stopped it.
  const auto produce = [&](std::size_t b, std::size_t workers) {
    if (control.cancel != nullptr && control.cancel->cancelled())
      return false;
    if (control.batch_source) return control.batch_source(b, batch);
    return generate_on(b, batch, control.cancel, workers);
  };

  // Phase 3 — deterministic merge: each per-proxy buffer is already
  // sorted by key, so a k-way merge restores global generation order
  // (day, slot, component, sequence) — exactly the order the old
  // single-threaded loop emitted — before the records reach the sink.
  // Then the batch is complete.
  const auto emit = [&](std::size_t b) {
    {
      const obs::StageTimer merge_timer{merge_stage};
      std::uint64_t merged = 0;
      std::vector<std::size_t> head(n_proxies, 0);
      for (;;) {
        std::size_t best = n_proxies;
        std::uint64_t best_key = ~std::uint64_t{0};
        for (std::size_t p = 0; p < n_proxies; ++p) {
          if (head[p] < per_proxy[p].size() &&
              per_proxy[p][head[p]].key <= best_key) {
            best = p;
            best_key = per_proxy[p][head[p]].key;
          }
        }
        if (best == n_proxies) break;
        const Processed& item = per_proxy[best][head[best]];
        if (control.keyed_sink) control.keyed_sink(item.key, item.record);
        sink(item.record);
        ++head[best];
        ++merged;
      }
      obs::add(emitted, merged);
    }
    if (control.on_batch) control.on_batch(b);
  };

  if (control.start_batch >= end) return true;
  bool produced = produce(control.start_batch, threads);
  for (std::size_t b = control.start_batch; b < end; ++b) {
    if (!produced) return false;
    const std::size_t batch_start = b * kShardsPerBatch;
    const std::size_t n_shards =
        std::min(kShardsPerBatch, plan_.size() - batch_start);
    if (control.batch_source &&
        (batch.index != b || batch.shards.size() != n_shards))
      throw std::runtime_error(
          "scenario: batch source delivered batch " +
          std::to_string(batch.index) + " with " +
          std::to_string(batch.shards.size()) + " shards, expected batch " +
          std::to_string(b) + " with " + std::to_string(n_shards));

    // A cancellation must land here, before phase 2 touches any proxy:
    // phase 1 is pure (RNG streams derive from shard ordinals, and routing
    // writes no farm state), so its output can be discarded freely — but
    // once a proxy consumes a request its sequential RNG and cache have
    // advanced, and a batch abandoned after that would leave the farm
    // state one batch ahead of the records a checkpoint saw (a resumed run
    // would then process the batch twice and diverge). From this point the
    // batch runs to the sink unconditionally, so its diversions count now.
    if (control.cancel != nullptr && control.cancel->cancelled())
      return false;
    for (std::size_t p = 0; p < batch.failovers.size(); ++p)
      if (batch.failovers[p] != 0)
        farm_.add_failovers(p, batch.failovers[p]);

    // Phase 2 — per-proxy processing. Each SgProxy owns an LRU cache and
    // an RNG that must advance sequentially, so each proxy walks its own
    // time-ordered queue (shard-major, generation-order minor) on its own
    // worker. Requests on filtered days still pass through the proxy —
    // the leak drops the *records*, not the traffic that warmed caches.
    // Each request's strings move into its record.
    // NOTE: phase 2 is never handed the cancel token — a proxy that has
    // started consuming a batch must finish it, or its sequential RNG and
    // cache would be left mid-batch and the in-memory state could not be
    // discarded cleanly at a batch boundary.
    util::parallel_for(n_proxies, threads, [&](std::size_t p) {
      const obs::StageTimer timer{proc_stage};
      std::vector<Processed>& out = per_proxy[p];
      out.clear();
      // An unowned proxy's queue is dropped whole, leaving its sequential
      // state untouched (some other process owns and advances it).
      if (((control.proxy_mask >> p) & 1) == 0) return;
      proxy::SgProxy& appliance = farm_.proxy(p);
      for (std::size_t i = 0; i < n_shards; ++i) {
        RoutedShard& shard = batch.shards[i];
        const SlotPlan& sp = plan_[batch_start + i];
        const std::uint64_t hi = static_cast<std::uint64_t>(batch_start + i)
                                 << 32;
        for (std::size_t k = 0; k < shard.requests.size(); ++k) {
          if (shard.proxy_of[k] != p) continue;
          proxy::LogRecord record =
              appliance.process(std::move(shard.requests[k]));
          if (sp.filtered_day && p != 0) continue;
          if (!sp.keep_hashes) record.user_hash = 0;
          const std::uint64_t sequence =
              shard.sequence.empty() ? k : shard.sequence[k];
          out.push_back({hi | sequence, std::move(record)});
        }
      }
    });

    // The batch's requests are dead now. With threads to spare, phase 1 of
    // the next batch refills `batch` on threads - 1 workers of a helper
    // thread while this thread emits batch b; phase 2 never overlaps the
    // sink or on_batch, so on_batch(b) sees the farm exactly as batch b
    // left it. With one thread the phases run inline, one after another.
    const bool more = b + 1 < end;
    if (!more || threads <= 1) {
      emit(b);
      if (more) produced = produce(b + 1, threads);
      continue;
    }
    std::exception_ptr producer_error;
    std::thread producer{[&, next = b + 1] {
      try {
        produced = produce(next, threads - 1);
      } catch (...) {
        producer_error = std::current_exception();
      }
    }};
    try {
      emit(b);
    } catch (...) {
      producer.join();
      throw;
    }
    {
      // Resolved here, so that only a run that overlapped reports it.
      const obs::StageTimer wait_timer{
          obs::stage(obs_, "scenario.produce_wait")};
      producer.join();
    }
    if (producer_error) std::rethrow_exception(producer_error);
  }
  return true;
}

}  // namespace syrwatch::workload
