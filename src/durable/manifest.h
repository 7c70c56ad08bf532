#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/atomic_io.h"

namespace syrwatch::durable {

/// The run manifest (`syrwatch.manifest.v1`): one JSON document per
/// checkpointed run recording what the run was (config fingerprint, seed,
/// fault profile), how far it got (state, next_batch), and the integrity
/// digest of every artifact it produced. `syrwatchctl verify` re-checks a
/// manifest against the files on disk; resume refuses to continue from a
/// manifest whose fingerprint does not match the requested config or
/// whose artifacts fail their checksums.

/// One durable file the run produced.
struct ManifestArtifact {
  /// Relative to the manifest's directory for checkpoint-internal files
  /// ("log_spool.csv", "farm_state.bin"); output artifacts keep the path
  /// the operator passed (verify also tries it as given when the
  /// manifest-relative resolution misses).
  std::string path;
  /// "spool" | "state" | "output" | "keys" | "shard" (extensible). Verify
  /// digests roles alike, except "spool" and "keys": their bytes/crc32
  /// describe the *committed prefix*, so a longer file (torn tail from a
  /// crashed append — resume truncates it) still verifies; only the
  /// prefix is checksummed. "keys" is the spool's 8-byte-per-record merge
  /// key sidecar (sharded runs); "shard" points a coordinator manifest at
  /// one worker's own manifest file.
  std::string role;
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
  /// Newest batch covered, for the spool; -1 for everything else.
  std::int64_t batch = -1;
};

struct RunManifest {
  static constexpr std::string_view kSchema = "syrwatch.manifest.v1";
  /// File name the checkpoint layer uses inside a checkpoint directory.
  static constexpr std::string_view kFileName = "manifest.json";

  /// "in_progress" (run underway or crashed without warning),
  /// "interrupted" (graceful cancel — checkpoint flushed, resumable), or
  /// "complete".
  std::string state = "in_progress";
  std::string command;           // e.g. "generate"
  std::uint64_t seed = 0;
  std::uint64_t total_requests = 0;
  std::string fault_profile = "none";
  bool apply_leak_filter = true;
  /// Worker threads of the writing run — informational only; resume at a
  /// different thread count is supported (and bit-identical), so this
  /// field is deliberately excluded from the fingerprint.
  std::uint64_t threads = 0;
  /// fnv1a64 (16 hex digits) over the canonical rendering of every
  /// semantic ScenarioConfig field (durable::config_fingerprint).
  std::string config_fingerprint;
  std::uint64_t next_batch = 0;
  std::uint64_t total_batches = 0;
  /// Worker-process count of a sharded coordinator run (syrwatchctl
  /// generate --workers N). 0 — and absent from the JSON — for ordinary
  /// single-process manifests; resume refuses a worker-count mismatch
  /// because the proxy→shard assignment depends on it.
  std::uint64_t workers = 0;
  /// Shards abandoned after their restart budget ("shard-02", ...): their
  /// contribution to the merged output is only the prefix their last
  /// durable commit covered. Non-empty means the output carries
  /// [DEGRADED DATA] — complete for every surviving shard, truncated for
  /// these. Serialized only when non-empty, so pre-shard manifests parse
  /// unchanged.
  std::vector<std::string> degraded_shards;
  std::vector<ManifestArtifact> artifacts;

  bool complete() const noexcept { return state == "complete"; }

  ManifestArtifact* find_artifact(std::string_view path);
  const ManifestArtifact* find_artifact(std::string_view path) const;
  /// Insert-or-replace by path.
  void upsert_artifact(ManifestArtifact artifact);

  std::string to_json() const;
  /// Strict inverse of to_json (schema tag checked). Throws
  /// util::json::Error naming the offending field on malformed input.
  static RunManifest parse(std::string_view json);

  /// load/save at an explicit path; save writes atomically (temp → fsync
  /// → rename → parent fsync) through the given Vfs (default process Vfs).
  /// load refuses a file over util::json::kMaxBytes before reading it, and
  /// its parse errors name the path.
  static RunManifest load(const std::string& path);
  void save(const std::string& path, util::Vfs* vfs = nullptr) const;
};

/// Result of checking one manifest-listed artifact against disk.
struct ArtifactCheck {
  ManifestArtifact expected;
  std::string resolved_path;  // where verify looked (or tried last)
  bool exists = false;
  bool bytes_match = false;
  bool crc_match = false;
  util::ArtifactInfo actual;  // valid when exists

  bool ok() const noexcept { return exists && bytes_match && crc_match; }
  /// "ok" | "MISSING" | "SIZE MISMATCH" | "CRC MISMATCH".
  std::string_view status() const noexcept;
};

struct VerifyReport {
  std::vector<ArtifactCheck> checks;
  bool ok() const noexcept;
};

/// Re-digests every artifact the manifest lists. Relative paths resolve
/// against `base_dir` (the manifest's directory); a path that misses there
/// is retried as given, so output artifacts recorded relative to the
/// operator's working directory still verify when run from that directory.
VerifyReport verify_artifacts(const RunManifest& manifest,
                              const std::string& base_dir);

}  // namespace syrwatch::durable
