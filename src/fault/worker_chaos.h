#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace syrwatch::fault {

/// Process-level fault profiles for the multi-process sharded farm
/// (src/shard). Where fault::make_profile shapes the *simulated* farm's
/// health (proxy outages inside the log), worker-chaos shapes the *real*
/// farm's health: the coordinator consults the plan and SIGKILLs (or
/// stalls) its own worker processes at deterministic batch boundaries, so
/// the supervision machinery — death detection, backoff restart, resume,
/// degradation — is exercised by actual process death, reproducibly.
///
/// Like every other stochastic layer here, a (name, seed, workers,
/// total_batches) tuple always yields the same plan.

struct WorkerChaosEvent {
  enum class Kind : std::uint8_t {
    kKill,   ///< SIGKILL the worker after it reports this batch done.
    kStall,  ///< Worker sleeps at this batch boundary (first attempt only),
             ///< long enough to trip a configured heartbeat timeout.
    kGarble,  ///< The coordinator flips one byte of this batch's data frame
              ///< to the worker (first attempt only).
  };
  std::size_t worker = 0;
  /// The event fires when the worker's batch with this index completes
  /// (kGarble: when this batch is sent).
  std::size_t after_batch = 0;
  Kind kind = Kind::kKill;
};

struct WorkerChaosPlan {
  std::vector<WorkerChaosEvent> events;
  bool empty() const noexcept { return events.empty(); }
  /// One-line human rendering, e.g. "kill shard-01 after batch 7".
  std::string describe() const;
};

/// Builds the named plan:
///   none          empty plan; supervision stays a pure observer
///   worker-chaos  SIGKILL ceil(workers/2) distinct workers, once each, at
///                 hash-drawn batch boundaries — the canonical
///                 crash-and-recover exercise (CI's sharded resume leg)
///   worker-stall  one worker sleeps at a hash-drawn boundary on its first
///                 attempt, tripping the heartbeat timeout instead of
///                 dying — exercises liveness detection, not just waitpid
///   worker-garble one worker receives one corrupted data frame on its
///                 first attempt — exercises the frame decoder's refusal,
///                 the worker's error exit and the restart behind it
/// Throws std::invalid_argument for an unknown name.
WorkerChaosPlan make_worker_chaos(std::string_view name, std::uint64_t seed,
                                  std::size_t workers,
                                  std::size_t total_batches);

/// Names accepted by make_worker_chaos, in presentation order.
const std::vector<std::string>& worker_chaos_names();

}  // namespace syrwatch::fault
