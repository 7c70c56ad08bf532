#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "durable/manifest.h"
#include "obs/context.h"
#include "shard/merge.h"
#include "util/atomic_io.h"
#include "util/cancel.h"
#include "workload/scenario.h"

namespace syrwatch::shard {

/// The supervising coordinator of the multi-process farm: builds the
/// scenario once, forks one worker per shard before generating anything,
/// then generates and routes each batch once (under config.threads) and
/// streams every worker only its own proxies' requests over a data pipe,
/// generating batch k+1 while the workers filter batch k. It watches the
/// workers over per-worker status pipes and waitpid, restarts the dead
/// with capped exponential backoff (each restart resumes from the
/// worker's own checkpoint — at most commit_interval-1 batches re-run —
/// and the coordinator regenerates its input from there), and k-way
/// merges the surviving spools into the final log. A shard that exhausts
/// its restart budget is abandoned, not fatal: the run completes with the
/// abandoned shard's committed prefix and explicit [DEGRADED DATA]
/// annotations (manifest `degraded_shards` + coverage report). When every
/// shard survives, the merged output is byte-identical to the
/// single-process run at any thread count.

struct CoordinatorOptions {
  workload::ScenarioConfig config;
  /// Coordinator checkpoint directory; worker directories ("shard-NN")
  /// live under it, the coordinator's own manifest at its top level.
  std::string directory;
  /// Merged log destination (written atomically at completion).
  std::string out_path;
  std::size_t workers = 2;
  /// Continue a previous sharded run (same rules as single-process
  /// resume, plus a worker-count match — the proxy assignment depends
  /// on it).
  bool resume = false;
  std::size_t commit_interval = 1;
  /// Restarts each shard may consume before it is abandoned.
  std::size_t restart_budget = 3;
  /// Declare a worker hung when no status frame arrives for this long
  /// (SIGKILL + normal restart path). 0 disables liveness enforcement —
  /// death detection by waitpid alone. The clock runs only while the
  /// worker owes progress on input the coordinator has queued for it: a
  /// worker waiting for its next batch is idle, not hung.
  std::uint64_t heartbeat_ms = 0;
  /// Backoff before restart r is min(cap, base * 2^(r-1)).
  std::uint64_t restart_backoff_ms = 200;
  std::uint64_t restart_backoff_cap_ms = 5000;
  /// fault::make_worker_chaos profile the coordinator itself injects
  /// ("none", "worker-chaos", "worker-stall", "worker-garble").
  std::string worker_chaos = "none";
  const util::CancelToken* cancel = nullptr;
  /// Attached to the coordinator's scenario (scenario.generate_shard,
  /// scenario.generated, farm.route.*) and fed the shard.* counters.
  obs::Context* obs = nullptr;
};

struct ShardedRun {
  /// True when the run finished — possibly degraded; false when
  /// cancellation interrupted it (every shard checkpointed, resumable).
  bool completed = false;
  util::ArtifactInfo output;
  std::uint64_t records = 0;
  std::vector<ShardContribution> shards;
  std::vector<std::string> degraded_shards;
  /// Combined per-shard read stats (merge_shards' fold) — hand this to
  /// analysis::request_coverage so a degraded merge surfaces as damage.
  proxy::LogReadStats read_stats;
  // Supervision tallies (mirrored into obs counters when a context is
  // attached).
  std::uint64_t spawns = 0;
  std::uint64_t restarts = 0;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t kills_injected = 0;
  std::uint64_t shards_abandoned = 0;
  /// Final coordinator manifest as saved to disk.
  durable::RunManifest manifest;
};

/// Runs the whole sharded generation. Throws std::runtime_error on a
/// refused resume, an unusable directory, or a merge integrity failure in
/// a surviving shard; worker death — including every worker dying — is
/// handled, not thrown. SIGPIPE is ignored while it runs (a write to a
/// worker that just died is that worker's death, not the coordinator's)
/// and restored to the caller's disposition on return.
ShardedRun run_sharded(const CoordinatorOptions& options);

/// "proxies SG-44, SG-47 (shard-01)" — human rendering of what degraded
/// shards cost, for the CLI's [DEGRADED DATA] block. Empty string when
/// nothing degraded.
std::string describe_degraded(const std::vector<ShardContribution>& shards);

}  // namespace syrwatch::shard
