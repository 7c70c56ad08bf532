#include "durable/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/context.h"
#include "obs/trace.h"
#include "proxy/log_io.h"
#include "util/checksum.h"
#include "util/vfs.h"

namespace syrwatch::durable {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kStateFile = "farm_state.bin";
/// Second farm-state slot. Commits alternate between the two slots and the
/// manifest names the live one, so the previous snapshot is never clobbered
/// in place: a power cut between the state rename and the manifest rename
/// leaves the old manifest still pointing at its own intact slot, instead
/// of at a newer state file whose CRC it cannot match.
constexpr std::string_view kStateAltFile = "farm_state.alt.bin";
constexpr std::string_view kKeysFile = "merge_keys.bin";

/// The manifest's live farm-state artifact (by role — its path alternates
/// between the two slots), or nullptr before the first commit.
const ManifestArtifact* find_state_artifact(const RunManifest& manifest) {
  for (const ManifestArtifact& artifact : manifest.artifacts)
    if (artifact.role == "state") return &artifact;
  return nullptr;
}

[[noreturn]] void throw_io(const std::string& what) {
  const int code = errno;
  throw util::VfsError(what + ": " + std::strerror(code), code);
}

/// Closes a Vfs fd on scope exit; fds stay owned here for the whole run
/// (error paths unwind through it).
struct FdGuard {
  util::Vfs& vfs;
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) vfs.close(fd);
  }
};

void append_key_le(std::string& out, std::uint64_t key) {
  for (int shift = 0; shift < 64; shift += 8)
    out += static_cast<char>((key >> shift) & 0xFF);
}

void append_u64(std::string& out, std::string_view key, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
  out += key;
  out += '=';
  out += buffer;
  out += '\n';
}

void append_double(std::string& out, std::string_view key, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += key;
  out += '=';
  out += buffer;
  out += '\n';
}

void append_bool(std::string& out, std::string_view key, bool value) {
  out += key;
  out += value ? "=1\n" : "=0\n";
}

/// Streams the committed prefix of a spool file (header line + record
/// lines) back through the sink, strictly: a checkpointed record that
/// fails to parse means the artifact was damaged after its CRC check,
/// which is never recoverable. Returns the record count.
std::uint64_t replay_spool(const std::string& path, std::uint64_t limit,
                           const workload::LogCallback& sink) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("checkpoint: cannot open spool " + path);
  proxy::LineBuffer lines;
  proxy::LogLineReader reader;
  proxy::LogRecord record;  // refilled per line: the sink takes a record
  std::uint64_t read = 0;
  std::uint64_t replayed = 0;
  std::string_view line;
  while (read < limit) {
    const std::span<char> space = lines.space();
    in.read(space.data(), static_cast<std::streamsize>(std::min<std::uint64_t>(
                              space.size(), limit - read)));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    read += got;
    lines.filled(got);
    while (lines.next(line)) {
      const proxy::LineKind kind = reader.frame(line);
      if (kind == proxy::LineKind::kSkipped)
        throw std::runtime_error("checkpoint: " + path + ": line " +
                                 std::to_string(reader.stats().lines) +
                                 ": unparseable checkpointed record");
      if (kind != proxy::LineKind::kRecord) continue;
      proxy::assign(record, reader.record());
      sink(record);
      ++replayed;
    }
  }
  if (in.bad())
    throw std::runtime_error("checkpoint: read error on spool " + path);
  if (read != limit)
    throw std::runtime_error("checkpoint: " + path +
                             " is shorter than its manifest digest");
  if (!lines.partial().empty())
    throw std::runtime_error(
        "checkpoint: " + path +
        ": committed prefix does not end on a record boundary");
  return replayed;
}

/// The whole file in one read, into a string sized from its length.
std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) throw std::runtime_error("checkpoint: read error on " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), size))
    throw std::runtime_error("checkpoint: read error on " + path);
  return bytes;
}

[[noreturn]] void refuse(const std::string& path, std::string_view why) {
  throw std::runtime_error("checkpoint: refusing to resume — " + path +
                           ": " + std::string(why));
}

/// The checkpoint directory's writer (DESIGN.md §4.8). Each job runs on
/// a thread of its own: it appends one batch, signals "appended", then
/// makes that batch's commit durable while the calling thread moves on to
/// the next batch. At most one job is in flight — the calling thread joins
/// it before it starts another or touches the checkpoint itself. A job's
/// failure is stored, wakes the waiter, and is rethrown on the calling
/// thread by the next join.
class BatchWriter {
 public:
  BatchWriter() = default;
  BatchWriter(const BatchWriter&) = delete;
  BatchWriter& operator=(const BatchWriter&) = delete;
  ~BatchWriter() {
    if (thread_.joinable()) thread_.join();
  }

  /// Starts `append`, then `commit`, on a new thread. The previous job
  /// must have been joined.
  void start(std::function<void()> append, std::function<void()> commit) {
    appended_ = false;
    failed_ = false;
    thread_ = std::thread{[this, append = std::move(append),
                           commit = std::move(commit)] {
      try {
        append();
        signal(appended_);
        commit();
      } catch (...) {
        failure_ = std::current_exception();
        signal(failed_);
      }
    }};
  }

  /// Blocks until the running job's append is done; if the job failed
  /// first, joins it and rethrows.
  void wait_appended() {
    bool failed = false;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      changed_.wait(lock, [this] { return appended_ || failed_; });
      failed = failed_;
    }
    if (failed) join();
  }

  /// Blocks until the job (if any) is done and rethrows its failure.
  void join() {
    if (thread_.joinable()) thread_.join();
    if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
  }

 private:
  void signal(bool& flag) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      flag = true;
    }
    changed_.notify_all();
  }

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable changed_;
  bool appended_ = false;
  bool failed_ = false;
  std::exception_ptr failure_;  // read only after the thread is joined
};

/// Where a resume replays the log from: the spool while the checkpoint
/// still owns it, or the promoted output file after finalize_output.
struct ReplaySource {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
};

ReplaySource resolve_replay_source(const RunManifest& manifest,
                                   const fs::path& dir) {
  if (const ManifestArtifact* spool = manifest.find_artifact(kSpoolFile))
    return {(dir / kSpoolFile).string(), spool->bytes, spool->crc32};
  for (const ManifestArtifact& artifact : manifest.artifacts) {
    if (artifact.role != "output") continue;
    // Promoted output: recorded as the operator passed it; try as given,
    // then relative to the checkpoint directory (mirrors verify).
    std::error_code ec;
    if (fs::exists(artifact.path, ec) && !ec)
      return {artifact.path, artifact.bytes, artifact.crc32};
    return {(dir / artifact.path).string(), artifact.bytes, artifact.crc32};
  }
  throw std::runtime_error(
      "checkpoint: manifest lists neither a spool nor an output artifact — "
      "nothing to replay");
}

}  // namespace

std::string config_fingerprint(const workload::ScenarioConfig& config) {
  // Canonical key=value rendering, one semantic field per line, fixed
  // order. `threads` is excluded on purpose: the log is thread-count
  // invariant, so resume at a different worker count must fingerprint
  // identically. Extending ScenarioConfig means extending this list —
  // tests/test_durable.cpp pins the fingerprint of the default config.
  std::string canon = "syrwatch.scenario.v1\n";
  append_u64(canon, "seed", config.seed);
  append_u64(canon, "total_requests", config.total_requests);
  append_u64(canon, "user_population", config.user_population);
  append_u64(canon, "catalog_tail", config.catalog_tail);
  append_double(canon, "catalog_tail_weight", config.catalog_tail_weight);
  append_u64(canon, "relay_count", config.relay_count);
  append_u64(canon, "torrent_contents", config.torrent_contents);
  const proxy::SgProxyConfig& proxy = config.proxy_config;
  append_u64(canon, "proxy.cache_capacity", proxy.cache_capacity);
  append_u64(canon, "proxy.cache_ttl_seconds",
             static_cast<std::uint64_t>(proxy.cache_ttl_seconds));
  append_double(canon, "proxy.observed_admit_prob",
                proxy.observed_admit_prob);
  append_double(canon, "proxy.policy_admit_prob", proxy.policy_admit_prob);
  append_double(canon, "proxy.not_modified_prob", proxy.not_modified_prob);
  append_bool(canon, "proxy.intercept_https", proxy.intercept_https);
  const proxy::ErrorRates& rates = proxy.error_rates;
  append_double(canon, "proxy.err.tcp_error", rates.tcp_error);
  append_double(canon, "proxy.err.internal_error", rates.internal_error);
  append_double(canon, "proxy.err.invalid_request", rates.invalid_request);
  append_double(canon, "proxy.err.unsupported_protocol",
                rates.unsupported_protocol);
  append_double(canon, "proxy.err.dns_unresolved_hostname",
                rates.dns_unresolved_hostname);
  append_double(canon, "proxy.err.dns_server_failure",
                rates.dns_server_failure);
  append_double(canon, "proxy.err.unsupported_encoding",
                rates.unsupported_encoding);
  append_double(canon, "proxy.err.invalid_response", rates.invalid_response);
  append_bool(canon, "apply_leak_filter", config.apply_leak_filter);
  append_u64(canon, "slot_seconds",
             static_cast<std::uint64_t>(config.slot_seconds));
  append_bool(canon, "enable_affinity", config.enable_affinity);
  for (const auto& [name, boost] : config.share_boosts)  // map: sorted
    append_double(canon, "boost." + name, boost);
  canon += "fault_profile=" + config.fault_profile + "\n";
  return util::to_hex64(util::fnv1a64(canon));
}

CheckpointedRun run_checkpointed(workload::SyriaScenario& scenario,
                                 const CheckpointOptions& options,
                                 const workload::LogCallback& sink) {
  if (options.directory.empty())
    throw std::runtime_error("checkpoint: directory must not be empty");
  if (options.commit_interval == 0)
    throw std::runtime_error("checkpoint: commit_interval must be >= 1");
  const fs::path dir{options.directory};
  const std::string manifest_path = (dir / RunManifest::kFileName).string();
  const std::string spool_path = (dir / kSpoolFile).string();
  const std::string state_path = (dir / kStateFile).string();
  // Which slot holds the farm state this run resumes from / commits to
  // next; tracked through the manifest's "state" artifact (see
  // kStateAltFile).
  std::string active_state_path = state_path;
  const std::string keys_path = (dir / kKeysFile).string();
  const std::string fingerprint = config_fingerprint(scenario.config());
  const std::size_t total_batches = scenario.batch_count();

  obs::Context* const ctx = scenario.obs_context();
  obs::Counter* const obs_commits =
      obs::counter(ctx, "checkpoint.commits");
  obs::Counter* const obs_replayed =
      obs::counter(ctx, "checkpoint.records_replayed");
  obs::StageStats* const spool_stage =
      obs::stage(ctx, "checkpoint.append_spool");
  obs::StageStats* const state_stage =
      obs::stage(ctx, "checkpoint.write_state");
  // The calling thread blocked on the writer, one sample per batch.
  obs::StageStats* const wait_stage =
      obs::stage(ctx, "checkpoint.writer_wait");

  CheckpointedRun result;
  RunManifest& manifest = result.manifest;

  std::error_code ec;
  const bool have_manifest = fs::exists(manifest_path, ec) && !ec;
  ReplaySource replay_from;
  // The committed farm state, read once: checked here, restored below.
  std::string state_bytes;
  if (options.resume) {
    if (!have_manifest)
      throw std::runtime_error("checkpoint: nothing to resume — no " +
                               std::string(RunManifest::kFileName) + " in " +
                               options.directory);
    manifest = RunManifest::load(manifest_path);
    if (manifest.command != options.command)
      throw std::runtime_error(
          "checkpoint: manifest records command \"" + manifest.command +
          "\", cannot resume it as \"" + options.command + "\"");
    if (manifest.config_fingerprint != fingerprint)
      throw std::runtime_error(
          "checkpoint: config fingerprint mismatch (manifest " +
          manifest.config_fingerprint + ", current " + fingerprint +
          ") — the checkpoint was written by a different configuration");
    if (manifest.total_batches != total_batches)
      throw std::runtime_error(
          "checkpoint: batch-count mismatch (manifest " +
          std::to_string(manifest.total_batches) + ", current " +
          std::to_string(total_batches) + ")");

    if (manifest.next_batch > 0 || manifest.complete()) {
      // Verify the log bytes we are about to trust: committed spool
      // prefix (a torn tail beyond it is legal — truncated below) and the
      // farm state snapshot.
      replay_from = resolve_replay_source(manifest, dir);
      std::error_code exists_ec;
      if (!fs::exists(replay_from.path, exists_ec) || exists_ec)
        refuse(replay_from.path, "MISSING");
      const util::FileDigest digest =
          util::crc32_file_prefix(replay_from.path, replay_from.bytes);
      if (digest.bytes != replay_from.bytes)
        refuse(replay_from.path, "SIZE MISMATCH (shorter than manifest)");
      if (digest.crc32 != replay_from.crc32)
        refuse(replay_from.path, "CRC MISMATCH");
      if (const ManifestArtifact* state = find_state_artifact(manifest)) {
        active_state_path = (dir / state->path).string();
        std::error_code state_ec;
        if (!fs::exists(active_state_path, state_ec) || state_ec)
          refuse(active_state_path, "MISSING");
        state_bytes = read_file(active_state_path);
        if (state_bytes.size() != state->bytes ||
            util::crc32_of(state_bytes) != state->crc32)
          refuse(active_state_path, "CRC MISMATCH");
      } else if (manifest.next_batch > 0) {
        refuse(active_state_path,
               "MISSING (the manifest lists no farm state)");
      }
      // Drop any torn tail a crashed append left beyond the committed
      // prefix, so the re-executed batches append onto clean bytes.
      if (manifest.find_artifact(kSpoolFile) != nullptr) {
        std::error_code size_ec;
        const std::uintmax_t on_disk =
            fs::file_size(replay_from.path, size_ec);
        if (!size_ec && on_disk > replay_from.bytes)
          fs::resize_file(replay_from.path, replay_from.bytes);
      }
      if (options.record_keys) {
        // The merge-key sidecar carries the same committed-prefix
        // semantics as the spool: verify, then truncate any torn tail.
        const ManifestArtifact* keys = manifest.find_artifact(kKeysFile);
        if (keys == nullptr)
          refuse(keys_path,
                 "manifest records no merge-key sidecar — the checkpoint "
                 "was not written by a shard worker");
        std::error_code keys_ec;
        if (!fs::exists(keys_path, keys_ec) || keys_ec)
          refuse(keys_path, "MISSING");
        const util::FileDigest keys_digest =
            util::crc32_file_prefix(keys_path, keys->bytes);
        if (keys_digest.bytes != keys->bytes)
          refuse(keys_path, "SIZE MISMATCH (shorter than manifest)");
        if (keys_digest.crc32 != keys->crc32)
          refuse(keys_path, "CRC MISMATCH");
        std::error_code size_ec;
        const std::uintmax_t on_disk = fs::file_size(keys_path, size_ec);
        if (!size_ec && on_disk > keys->bytes)
          fs::resize_file(keys_path, keys->bytes);
      }
    }
  } else {
    if (have_manifest)
      throw std::runtime_error(
          "checkpoint: " + options.directory + " already holds a " +
          std::string(RunManifest::kFileName) +
          " — pass --resume to continue it, or point --checkpoint-dir at "
          "an empty directory");
    const workload::ScenarioConfig& config = scenario.config();
    manifest.command = options.command;
    manifest.seed = config.seed;
    manifest.total_requests = config.total_requests;
    manifest.fault_profile = config.fault_profile;
    manifest.apply_leak_filter = config.apply_leak_filter;
    manifest.config_fingerprint = fingerprint;
    manifest.total_batches = total_batches;
  }

  fs::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("checkpoint: cannot create " + dir.string() +
                             ": " + ec.message());

  // The farm (tallies, caches, RNGs) takes the last committed state, also
  // when the run already finished: callers read its tallies either way.
  // Restored before the replay, so a blob that fails to parse is refused
  // before any record reaches the sink.
  if (manifest.next_batch > 0) {
    scenario.farm().restore_state(state_bytes);
    std::string{}.swap(state_bytes);
  }

  // Replay the committed prefix (also the whole run when the manifest is
  // already complete — re-running a finished checkpoint is idempotent).
  if (manifest.next_batch > 0 || manifest.complete())
    result.records_replayed =
        replay_spool(replay_from.path, replay_from.bytes, sink);
  result.batches_replayed = manifest.next_batch;
  obs::add(obs_replayed, result.records_replayed);

  if (manifest.complete()) {
    result.completed = true;
    return result;
  }

  // Open the spool for appending and seat the running CRC where the
  // committed prefix left it. A fresh run starts the spool with the csv
  // header line, so on completion the spool is the finished log verbatim.
  // All durable writes go through the injectable Vfs (DESIGN.md §4.13):
  // batches append via write_fully (short writes advanced, EINTR retries
  // capped) with no fsync — durability is bought only at commit
  // boundaries, where spool and keys are fsynced before the state and
  // manifest that describe them.
  util::Vfs& vfs = util::vfs_or_default(options.vfs);
  util::Crc32 spool_crc;
  std::uint64_t spool_bytes = 0;
  FdGuard spool{vfs};
  if (manifest.next_batch > 0) {
    const ManifestArtifact* artifact = manifest.find_artifact(kSpoolFile);
    spool.fd = vfs.open(spool_path, util::OpenMode::kAppend);
    if (spool.fd < 0)
      throw_io("checkpoint: cannot append to " + spool_path);
    spool_crc.resume(artifact->crc32);
    spool_bytes = artifact->bytes;
  } else {
    spool.fd = vfs.open(spool_path, util::OpenMode::kTruncate);
    if (spool.fd < 0) throw_io("checkpoint: cannot create " + spool_path);
    std::string header{proxy::log_csv_header()};
    header += '\n';
    // The header is fsynced immediately: the first manifest save below
    // records it as the committed prefix, and a manifest must never
    // describe bytes the disk could still lose.
    if (!util::write_fully(vfs, spool.fd, header) ||
        !util::fsync_fully(vfs, spool.fd))
      throw_io("checkpoint: write error on " + spool_path);
    spool_crc.update(header);
    spool_bytes = header.size();
    manifest.upsert_artifact({std::string(kSpoolFile), "spool",
                              spool_bytes, spool_crc.value(), -1});
  }

  // The merge-key sidecar mirrors the spool's open/append/resume dance.
  util::Crc32 keys_crc;
  std::uint64_t keys_bytes = 0;
  FdGuard keys{vfs};
  if (options.record_keys) {
    if (manifest.next_batch > 0) {
      const ManifestArtifact* artifact = manifest.find_artifact(kKeysFile);
      keys.fd = vfs.open(keys_path, util::OpenMode::kAppend);
      if (keys.fd < 0)
        throw_io("checkpoint: cannot append to " + keys_path);
      keys_crc.resume(artifact->crc32);
      keys_bytes = artifact->bytes;
    } else {
      keys.fd = vfs.open(keys_path, util::OpenMode::kTruncate);
      if (keys.fd < 0) throw_io("checkpoint: cannot create " + keys_path);
      manifest.upsert_artifact({std::string(kKeysFile), "keys", 0, 0, -1});
    }
  }

  manifest.state = "in_progress";
  manifest.threads = scenario.config().threads;
  manifest.save(manifest_path, &vfs);

  // Records serialize exactly once, straight into the pending append.
  // Each buffer is single: the writer drains batch b's text and keys
  // before on_batch(b) returns, so batch b+1's sink always finds them
  // free.
  std::string batch_text;
  std::string batch_keys;
  // The farm snapshot of the commit in flight, reused across commits.
  // The calling thread refills it only once the writer is joined.
  std::string state_blob;
  std::uint64_t snapshot_nanos = 0;
  std::size_t batches_done = manifest.next_batch;
  std::size_t uncommitted = 0;

  // Every Vfs call on the checkpoint from here on is made by the writer,
  // or by the calling thread once the writer is joined: one sequence, in
  // batch order, as if a single thread made them all.
  const auto append = [&] {
    {
      const obs::StageTimer timer{spool_stage};
      if (!util::write_fully(vfs, spool.fd, batch_text))
        throw_io("checkpoint: write error on " + spool_path);
      if (options.record_keys) {
        // Keys append after the spool: a crash between the two leaves
        // more spool than keys on disk, and both beyond the committed
        // prefix — resume truncates each back to its manifest digest,
        // restoring the one-key-per-record invariant.
        if (!util::write_fully(vfs, keys.fd, batch_keys))
          throw_io("checkpoint: write error on " + keys_path);
      }
    }
    spool_crc.update(batch_text);
    spool_bytes += batch_text.size();
    batch_text.clear();
    if (options.record_keys) {
      keys_crc.update(batch_keys);
      keys_bytes += batch_keys.size();
      batch_keys.clear();
    }
  };

  // Calling thread: the farm as the last sunk batch left it.
  const auto snapshot = [&] {
    const std::uint64_t start = obs::monotonic_nanos();
    scenario.farm().save_state(state_blob);
    snapshot_nanos = obs::monotonic_nanos() - start;
  };

  // Makes batches [0, done) durable from the appended bytes and
  // `state_blob`.
  const auto commit = [&](std::size_t done) {
    // Durability order: spool (and keys) bytes reach stable storage
    // before the state snapshot and manifest that describe them.
    if (!util::fsync_fully(vfs, spool.fd))
      throw_io("checkpoint: fsync of " + spool_path + " failed");
    if (options.record_keys && !util::fsync_fully(vfs, keys.fd))
      throw_io("checkpoint: fsync of " + keys_path + " failed");
    // The new snapshot goes to the slot the manifest does NOT currently
    // reference — the live slot stays intact until the manifest save below
    // durably switches over, so a power cut anywhere inside this commit
    // leaves the on-disk manifest paired with an on-disk state it matches.
    const ManifestArtifact* prev_state = find_state_artifact(manifest);
    const std::string_view target_slot =
        (prev_state != nullptr && prev_state->path == kStateFile)
            ? kStateAltFile
            : kStateFile;
    const std::string_view stale_slot =
        target_slot == kStateFile ? kStateAltFile : kStateFile;
    active_state_path = (dir / target_slot).string();
    const std::uint64_t write_start = obs::monotonic_nanos();
    const util::ArtifactInfo state_info =
        util::atomic_write_file(active_state_path, state_blob, &vfs);
    // One sample per commit: the snapshot plus its write.
    if (state_stage != nullptr)
      state_stage->record(snapshot_nanos + obs::monotonic_nanos() -
                          write_start);
    manifest.upsert_artifact({std::string(kSpoolFile), "spool", spool_bytes,
                              spool_crc.value(),
                              static_cast<std::int64_t>(done) - 1});
    if (options.record_keys)
      manifest.upsert_artifact({std::string(kKeysFile), "keys", keys_bytes,
                                keys_crc.value(),
                                static_cast<std::int64_t>(done) - 1});
    std::erase_if(manifest.artifacts, [](const ManifestArtifact& artifact) {
      return artifact.role == "state";
    });
    manifest.upsert_artifact({std::string(target_slot), "state",
                              state_info.bytes, state_info.crc32, -1});
    manifest.next_batch = done;
    manifest.save(manifest_path, &vfs);
    // The other slot is now one commit stale and unreferenced; drop it
    // (best-effort — on a full disk this is also what frees room for the
    // next snapshot).
    vfs.unlink((dir / stale_slot).string());
    obs::add(obs_commits);
  };

  // Declared after every local its jobs touch, so it is joined first.
  BatchWriter writer;

  workload::RunControl control;
  control.cancel = options.cancel;
  control.start_batch = manifest.next_batch;
  control.batch_source = options.batch_source;
  if (options.record_keys)
    control.keyed_sink = [&](std::uint64_t key, const proxy::LogRecord&) {
      append_key_le(batch_keys, key);
    };
  control.on_batch = [&](std::size_t batch) {
    // The previous batch's commit ran beside phase 2 of this one; it must
    // be done before the snapshot buffer is refilled or a job starts.
    std::uint64_t waited = obs::monotonic_nanos();
    writer.join();
    waited = obs::monotonic_nanos() - waited;
    const bool commits = uncommitted + 1 >= options.commit_interval ||
                         batch + 1 == total_batches;
    if (commits) snapshot();
    writer.start(append, [&, batch, commits] {
      if (!commits) return;
      commit(batch + 1);
      if (options.after_commit) options.after_commit(batch);
    });
    const std::uint64_t append_start = obs::monotonic_nanos();
    writer.wait_appended();
    waited += obs::monotonic_nanos() - append_start;
    if (wait_stage != nullptr) wait_stage->record(waited);
    batches_done = batch + 1;
    uncommitted = commits ? 0 : uncommitted + 1;
    ++result.batches_executed;
    if (options.on_progress) options.on_progress(batch);
  };

  const workload::LogCallback buffering_sink =
      [&](const proxy::LogRecord& record) {
        proxy::append_csv(proxy::view_of(record), batch_text);
        sink(record);
      };

  bool finished = false;
  try {
    try {
      finished = scenario.run(buffering_sink, control);
    } catch (...) {
      // The writer's failure wins: once a power cut poisons a Vfs the
      // sink shares, the sink's own writes fail with EIO, and that
      // symptom must not hide the SimulatedPowerLoss behind it.
      writer.join();
      throw;
    }
    writer.join();
    // A cancellation between commit boundaries still has durable spool
    // bytes — capture them so the resume re-executes nothing it has.
    if (!finished && uncommitted > 0) {
      snapshot();
      commit(batches_done);
    }
  } catch (const util::VfsError& error) {
    if (!error.out_of_space()) throw;
    // Graceful out-of-space degradation: truncate the uncommitted
    // spool/keys tail away — reclaiming real space on the full disk,
    // which is what lets the small "interrupted" manifest below land —
    // and stop cleanly at the last durable commit.
    result.stop_reason = std::string("disk full: ") + error.what();
    if (const ManifestArtifact* artifact = manifest.find_artifact(kSpoolFile))
      vfs.truncate(spool_path, artifact->bytes);
    if (options.record_keys)
      if (const ManifestArtifact* artifact = manifest.find_artifact(kKeysFile))
        vfs.truncate(keys_path, artifact->bytes);
  }
  manifest.state = finished ? "complete" : "interrupted";
  try {
    manifest.save(manifest_path, &vfs);
  } catch (const util::VfsError& error) {
    // Tolerable only while already degrading on a full disk: the last
    // committed manifest on disk still says "in_progress" and remains
    // fully consistent and resumable — we just could not restamp it.
    if (result.stop_reason.empty() || !error.out_of_space()) throw;
  }
  result.completed = finished;
  return result;
}

util::ArtifactInfo finalize_output(const std::string& directory,
                                   RunManifest& manifest,
                                   const std::string& out_path,
                                   util::Vfs* vfs_opt) {
  util::Vfs& vfs = util::vfs_or_default(vfs_opt);
  if (!manifest.complete())
    throw std::runtime_error(
        "checkpoint: cannot finalize output from an incomplete checkpoint "
        "(state \"" +
        manifest.state + "\")");
  const fs::path dir{directory};
  const std::string manifest_path = (dir / RunManifest::kFileName).string();
  const ManifestArtifact* spool = manifest.find_artifact(kSpoolFile);
  if (spool == nullptr) {
    // Already promoted on an earlier run: re-verify the recorded output.
    const ManifestArtifact* output = manifest.find_artifact(out_path);
    if (output == nullptr || output->role != "output")
      throw std::runtime_error(
          "checkpoint: manifest records no spool and no output at " +
          out_path);
    const util::FileDigest digest = util::crc32_file(out_path);
    if (digest.bytes != output->bytes || digest.crc32 != output->crc32)
      throw std::runtime_error("checkpoint: existing output " + out_path +
                               " does not match its manifest digest");
    return {output->bytes, output->crc32};
  }

  const util::ArtifactInfo info{spool->bytes, spool->crc32};
  const std::string spool_path = (dir / kSpoolFile).string();
  util::VfsStat spool_stat;
  if (!vfs.stat(spool_path, spool_stat)) {
    // Crash window: an earlier finalize renamed the spool onto out_path
    // and died before rewriting the manifest. If out_path carries exactly
    // the spool's digest, the promotion already happened — finish the
    // manifest swap instead of refusing.
    util::VfsStat out_stat;
    if (!vfs.stat(out_path, out_stat))
      throw std::runtime_error("checkpoint: spool " + spool_path +
                               " is missing and no output exists at " +
                               out_path);
    const util::FileDigest digest = util::crc32_file(out_path);
    if (digest.bytes != info.bytes || digest.crc32 != info.crc32)
      throw std::runtime_error("checkpoint: spool " + spool_path +
                               " is missing and " + out_path +
                               " does not match its manifest digest");
  } else if (vfs.rename(spool_path, out_path) == 0) {
    // Same filesystem: zero-copy promote. fsync the directory entry so
    // the rename itself survives power loss (best-effort; the data bytes
    // were fsynced at the final checkpoint commit).
    vfs.fsync_parent(out_path);
  } else {
    // Different filesystem (or an unwritable target dir entry): fall back
    // to a CRC-verified streaming copy, then drop the spool.
    const int src = vfs.open(spool_path, util::OpenMode::kRead);
    if (src < 0) throw_io("checkpoint: cannot open " + spool_path);
    const FdGuard src_guard{vfs, src};
    util::AtomicFileWriter writer{out_path, &vfs};
    char buffer[1 << 16];
    std::uint64_t offset = 0;
    for (;;) {
      const long got = vfs.read(src, buffer, sizeof buffer, offset);
      if (got < 0) {
        if (errno == EINTR) continue;
        throw_io("checkpoint: read error on " + spool_path);
      }
      if (got == 0) break;
      writer.write(std::string_view{buffer, static_cast<std::size_t>(got)});
      offset += static_cast<std::uint64_t>(got);
    }
    const util::ArtifactInfo copied = writer.commit();
    if (copied.bytes != info.bytes || copied.crc32 != info.crc32)
      throw std::runtime_error(
          "checkpoint: spool changed while being promoted to " + out_path);
    vfs.unlink(spool_path);
  }

  std::erase_if(manifest.artifacts, [](const ManifestArtifact& artifact) {
    return artifact.role == "spool";
  });
  manifest.upsert_artifact({out_path, "output", info.bytes, info.crc32, -1});
  manifest.save(manifest_path, &vfs);
  return info;
}

}  // namespace syrwatch::durable
