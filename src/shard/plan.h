#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace syrwatch::shard {

/// Deterministic proxy→worker assignment for the multi-process farm.
///
/// The unit of sharding is the *proxy*, not the time slot: each simulated
/// SG appliance carries sequential state (LRU cache, RNG) that depends on
/// every prior batch, so a proxy's whole timeline must live in one
/// process. Generation and routing are pure functions the coordinator
/// runs once; each worker receives only the requests routed to the
/// proxies it owns. With seven proxies the farm shards usefully up to
/// --workers 7; beyond that the surplus workers own nothing and are never
/// spawned.
///
/// Assignment is rendezvous (highest-random-weight) hashing on
/// (seed, proxy, worker): stateless, a pure function any process can
/// recompute, and stable in the sense that reshuffling is minimal when the
/// worker count changes. Nothing here talks to the farm's own
/// request-routing — that stays untouched inside proxy::ProxyFarm.

/// The worker that owns `proxy` when `workers` processes share the farm.
std::size_t owner_of_proxy(std::uint64_t seed, std::size_t proxy,
                           std::size_t workers);

/// Bitmask (bit p = proxy p) of the proxies `worker` owns. The masks of
/// workers 0..workers-1 partition the farm: disjoint, union all-proxies.
std::uint64_t proxy_mask_for(std::uint64_t seed, std::size_t worker,
                             std::size_t workers, std::size_t proxy_count);

/// Proxy indices set in `mask`, ascending.
std::vector<std::size_t> proxies_in_mask(std::uint64_t mask);

/// Checkpoint subdirectory of worker `w`: "shard-00", "shard-01", ...
std::string shard_dir_name(std::size_t worker);

/// The command string recorded in a worker's manifest, e.g.
/// "generate-shard:2/4:mask=0x12". Encodes the topology so a resume under
/// a different worker count or assignment is refused up front — the config
/// fingerprint deliberately knows nothing about sharding.
std::string worker_command(std::size_t worker, std::size_t workers,
                           std::uint64_t proxy_mask);

}  // namespace syrwatch::shard
