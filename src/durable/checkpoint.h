#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "durable/manifest.h"
#include "util/atomic_io.h"
#include "util/cancel.h"
#include "workload/scenario.h"

namespace syrwatch::durable {

/// Batch-granular crash safety for a SyriaScenario run.
///
/// The checkpoint directory holds:
///   manifest.json   — syrwatch.manifest.v1 (state, progress, digests)
///   log_spool.csv   — header + record lines, append-only (the log itself)
///   farm_state.bin  — proxy-farm mutable state at the last commit boundary
///                     (alternates with farm_state.alt.bin: each commit
///                     snapshots into the slot the manifest does *not*
///                     reference, so a crash mid-commit never leaves the
///                     manifest pointing at a state it cannot match)
///   merge_keys.bin  — only with record_keys: one u64 LE merge key per
///                     spool record, same append/commit rhythm as the spool
///
/// The spool is the write-ahead log of the run: each batch's records are
/// appended (serialized exactly once) and flushed, and every
/// `commit_interval` batches the farm state is written atomically followed
/// by the manifest, which records the spool's committed prefix (byte count
/// + running CRC32). A crash at any instant leaves a manifest describing
/// only fully durable state — a torn spool tail beyond the committed
/// prefix is truncated away on resume, and at most `commit_interval - 1`
/// batches of work are re-executed (deterministically, to identical
/// bytes). A resumed run replays the verified spool prefix through the
/// sink, restores the farm, and continues at next_batch — producing a
/// final log bit-identical to an uninterrupted run at any thread count
/// (generation shards are pure in their ordinal; proxy state advances in
/// fixed batch order). On completion the spool *is* the finished log:
/// `finalize_output` promotes it to the operator's --out path by rename
/// (same filesystem — zero copy) or verified streaming copy.
///
/// The disk work runs one batch behind the farm, on a writer thread
/// (DESIGN.md §4.8). In on_batch(b) the calling thread serializes the farm
/// when b commits, hands batch b's bytes to the writer and waits only for
/// them to be appended; the writer then fsyncs, writes the state slot and
/// the manifest while phase 2 of batch b+1 runs. One batch is in flight at
/// most: the next batch boundary, the end of the run and any exception
/// leaving the run join the writer first, so the manifest a run returns is
/// on disk, and a writer failure is rethrown on the calling thread there.

/// Spool file name inside a checkpoint directory. Public so tail
/// consumers (`syrwatchctl watch DIR`) can resolve DIR -> DIR/log_spool.csv
/// without duplicating the literal.
inline constexpr std::string_view kSpoolFile = "log_spool.csv";

/// 16-hex fnv1a64 over the canonical rendering of every semantic
/// ScenarioConfig field. `threads` is deliberately excluded (resume at a
/// different thread count is supported and bit-identical); everything that
/// can change the emitted log is included, so a fingerprint match means the
/// reconstructed scenario will regenerate exactly the checkpointed run.
std::string config_fingerprint(const workload::ScenarioConfig& config);

struct CheckpointOptions {
  /// Checkpoint directory (created if absent on a fresh run). Required.
  std::string directory;
  /// Continue a previous run: load + verify the manifest, replay the
  /// committed spool prefix, restore farm state, execute only the
  /// remaining batches. Without this flag a directory that already holds a
  /// manifest is refused (never silently clobber a resumable run).
  bool resume = false;
  /// Cooperative cancellation (SIGINT, --deadline). A cancelled run
  /// commits its progress, marks the manifest "interrupted", and is
  /// resumable.
  const util::CancelToken* cancel = nullptr;
  /// Recorded in the manifest; resume refuses a command mismatch.
  std::string command = "generate";
  /// Durable-commit cadence: farm state + manifest are written every this
  /// many batches (and always when the run ends, completes, or is
  /// cancelled). 1 = maximum durability; larger values amortize the
  /// fixed per-commit cost (the farm state alone is megabytes) at the
  /// price of re-executing up to interval-1 batches after a crash.
  std::size_t commit_interval = 1;
  /// Test hook: invoked on the writer thread right after each durable
  /// commit (spool prefix + state + manifest on disk) with the index of
  /// the newest committed batch — while the calling thread may already
  /// run the next batch, its sink and on_progress included. May throw —
  /// the calling thread rethrows the exception at the next batch boundary
  /// (or the end of the run), so it propagates out of run_checkpointed
  /// exactly like a crash between commits, which is how the
  /// crash-injection tests abort mid-run. A cancellation it requests
  /// lands at a later batch boundary.
  std::function<void(std::size_t committed_batch)> after_commit;
  /// Where the run takes each batch's routed requests from
  /// (workload::RunControl::batch_source, which may call it off the
  /// calling thread). The multi-process shard worker's knob: it reads
  /// them from its coordinator. Unset (the default), the scenario
  /// generates them itself.
  std::function<bool(std::size_t b, workload::RoutedBatch& batch)>
      batch_source;
  /// Also maintain merge_keys.bin — the spool's 8-byte-LE-per-record merge
  /// key sidecar, committed in the same batch rhythm (a manifest always
  /// describes exactly as many keys as committed spool records). Shard
  /// workers set this so the coordinator can k-way merge their spools back
  /// into generation order; the spool itself stays plain CSV.
  bool record_keys = false;
  /// Invoked on the calling thread once each batch's bytes are appended
  /// (spool + keys written, not yet fsynced), whether or not that batch
  /// commits, and before the next batch's cancel check; the batch's
  /// commit may still be under way on the writer. The liveness hook a
  /// shard worker's heartbeat rides on.
  std::function<void(std::size_t batch)> on_progress;
  /// Storage layer for every durable write (spool, keys, farm state,
  /// manifest). nullptr = the process default Vfs. Tests inject a
  /// FaultyVfs here to exercise ENOSPC/short-write/fsync-failure paths.
  util::Vfs* vfs = nullptr;
};

struct CheckpointedRun {
  /// True when the full observation window reached the sink (manifest
  /// state "complete"); false when cancellation stopped the run early
  /// (state "interrupted", resumable).
  bool completed = false;
  std::size_t batches_replayed = 0;
  std::uint64_t records_replayed = 0;
  std::size_t batches_executed = 0;
  /// Why an incomplete run stopped, when the checkpoint layer knows:
  /// non-empty after a graceful out-of-space degradation ("disk full: …").
  /// Empty for ordinary cancellation. Completed runs never set it.
  std::string stop_reason;
  /// Final manifest as saved to disk.
  RunManifest manifest;
};

/// Runs `scenario` under checkpoint protection, streaming the (replayed +
/// freshly generated) log to `sink` in deterministic order. The scenario
/// must be freshly constructed (farm in its initial state) — resumption
/// restores the farm itself. Throws std::runtime_error on a refused
/// resume (fingerprint/command mismatch, failed artifact verification,
/// missing manifest) or on checkpoint I/O failure. Out-of-space is the
/// exception to fail-loud: the run degrades gracefully — uncommitted
/// spool/keys bytes are truncated away (reclaiming the space), the
/// manifest is marked "interrupted", and the result carries
/// completed=false with a stop_reason, so the operator can free disk and
/// `--resume` from exactly the last durable commit.
CheckpointedRun run_checkpointed(workload::SyriaScenario& scenario,
                                 const CheckpointOptions& options,
                                 const workload::LogCallback& sink);

/// Promotes a *complete* checkpoint's spool into the output file the
/// operator asked for: rename when out_path is on the same filesystem
/// (zero copy), else a CRC-verified streaming copy; then swaps the
/// manifest's spool artifact for an "output" artifact at out_path, so
/// `syrwatchctl verify` covers the delivered file. Idempotent: if the
/// spool was already promoted to out_path on an earlier run, the recorded
/// output is re-verified and its digest returned. Throws
/// std::runtime_error if the manifest is not complete or the artifact
/// fails verification. Crash-tolerant: a run that died between the
/// promote rename and the manifest update is recognized (spool gone,
/// out_path matching the spool digest) and finishes the manifest swap.
util::ArtifactInfo finalize_output(const std::string& directory,
                                   RunManifest& manifest,
                                   const std::string& out_path,
                                   util::Vfs* vfs = nullptr);

}  // namespace syrwatch::durable
