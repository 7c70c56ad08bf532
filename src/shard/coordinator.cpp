#include "shard/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "util/checksum.h"

#include "durable/checkpoint.h"
#include "fault/worker_chaos.h"
#include "policy/syria.h"
#include "shard/plan.h"
#include "shard/protocol.h"
#include "shard/worker.h"
#include "util/subprocess.h"

namespace syrwatch::shard {

namespace {

namespace fs = std::filesystem;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Batches the coordinator queues for a worker beyond the newest one it
/// reported: enough to generate batch k+1 while the workers filter batch
/// k, few enough that a slow worker bounds the queued frames.
constexpr std::size_t kBatchesAhead = 2;

/// Supervisor-side state of one shard worker.
struct WorkerProc {
  enum class State : std::uint8_t {
    kIdle,         ///< not yet spawned this run
    kRunning,      ///< live child process
    kBackoff,      ///< dead, restart scheduled at restart_at
    kCompleted,    ///< shard fully generated (or owns nothing)
    kAbandoned,    ///< restart budget exhausted — merge committed prefix
    kInterrupted,  ///< cancellation stopped it; resumable
  };

  std::size_t index = 0;
  std::uint64_t mask = 0;
  std::string directory;
  State state = State::kIdle;
  pid_t pid = -1;
  int status_fd = -1;  ///< worker→coordinator status frames (read end)
  int data_fd = -1;    ///< coordinator→worker batch frames (write end)
  util::FrameReader reader;
  /// HELLO arrived, so next_input is the worker's own next_batch.
  bool hello_seen = false;
  /// The next batch to queue for this worker.
  std::size_t next_input = 0;
  /// One past the newest batch the worker reported on its status pipe.
  std::size_t next_report = 0;
  /// Data-channel bytes not yet written, from outbox_sent on.
  std::string outbox;
  std::size_t outbox_sent = 0;
  std::uint64_t last_frame_ms = 0;
  std::size_t attempts = 0;
  std::size_t restarts_used = 0;
  std::uint64_t restart_at_ms = 0;
  /// Pending chaos kills: (fire at committed batch >= first, fired).
  std::vector<std::pair<std::size_t, bool>> kills;
  std::size_t stall_after_batch = static_cast<std::size_t>(-1);
  std::size_t garble_batch = static_cast<std::size_t>(-1);

  bool unresolved() const noexcept {
    return state == State::kIdle || state == State::kRunning ||
           state == State::kBackoff;
  }

  /// Input is queued that the worker has not yet reported on: only then
  /// does its silence count against the heartbeat.
  bool owes_progress() const noexcept {
    return hello_seen && next_input > next_report;
  }
};

/// SIGPIPE ignored for the guard's lifetime, the previous disposition
/// restored after: run_sharded writes into pipes whose reader may have
/// just died, and bench/e2e calls it in-process.
class SigpipeIgnored {
 public:
  SigpipeIgnored() noexcept {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~SigpipeIgnored() { ::sigaction(SIGPIPE, &saved_, nullptr); }
  SigpipeIgnored(const SigpipeIgnored&) = delete;
  SigpipeIgnored& operator=(const SigpipeIgnored&) = delete;

 private:
  struct sigaction saved_ {};
};

}  // namespace

std::string describe_degraded(const std::vector<ShardContribution>& shards) {
  std::string out;
  for (const ShardContribution& shard : shards) {
    if (!shard.degraded) continue;
    std::string proxies;
    for (const std::size_t p : proxies_in_mask(shard.proxy_mask)) {
      if (!proxies.empty()) proxies += ", ";
      proxies += policy::proxy_name(p);
    }
    if (!out.empty()) out += ", ";
    out += proxies + " (" + shard.name + ")";
  }
  return out.empty() ? out : "proxies " + out;
}

ShardedRun run_sharded(const CoordinatorOptions& options) {
  if (options.workers == 0)
    throw std::runtime_error("shard: --workers must be >= 1");
  if (options.directory.empty())
    throw std::runtime_error("shard: checkpoint directory must not be empty");
  if (options.out_path.empty())
    throw std::runtime_error("shard: output path must not be empty");
  if (options.commit_interval == 0)
    throw std::runtime_error("shard: commit_interval must be >= 1");

  const std::string fingerprint = durable::config_fingerprint(options.config);
  // The one scenario of the run: it validates the config before any fork,
  // generates every batch, and reaches each worker through fork().
  workload::SyriaScenario scenario{options.config};
  scenario.set_obs(options.obs);
  const std::size_t total_batches = scenario.batch_count();

  const fs::path dir{options.directory};
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("shard: cannot create " + dir.string() + ": " +
                             ec.message());
  const std::string manifest_path = (dir / durable::RunManifest::kFileName).string();

  ShardedRun result;
  durable::RunManifest& manifest = result.manifest;
  const bool have_manifest = fs::exists(manifest_path, ec) && !ec;
  if (options.resume) {
    if (!have_manifest)
      throw std::runtime_error("shard: nothing to resume — no " +
                               std::string(durable::RunManifest::kFileName) +
                               " in " + options.directory);
    manifest = durable::RunManifest::load(manifest_path);
    if (manifest.command != "generate-sharded")
      throw std::runtime_error(
          "shard: manifest records command \"" + manifest.command +
          "\", cannot resume it as \"generate-sharded\"");
    if (manifest.config_fingerprint != fingerprint)
      throw std::runtime_error(
          "shard: config fingerprint mismatch (manifest " +
          manifest.config_fingerprint + ", current " + fingerprint + ")");
    if (manifest.workers != options.workers)
      throw std::runtime_error(
          "shard: worker-count mismatch (manifest " +
          std::to_string(manifest.workers) + ", current " +
          std::to_string(options.workers) +
          ") — the proxy assignment depends on it");
    if (manifest.total_batches != total_batches)
      throw std::runtime_error(
          "shard: batch-count mismatch (manifest " +
          std::to_string(manifest.total_batches) + ", current " +
          std::to_string(total_batches) + ")");
  } else {
    if (have_manifest)
      throw std::runtime_error(
          "shard: " + options.directory + " already holds a " +
          std::string(durable::RunManifest::kFileName) +
          " — pass --resume to continue it, or point --checkpoint-dir at "
          "an empty directory");
    manifest.command = "generate-sharded";
    manifest.seed = options.config.seed;
    manifest.total_requests = options.config.total_requests;
    manifest.fault_profile = options.config.fault_profile;
    manifest.apply_leak_filter = options.config.apply_leak_filter;
    manifest.threads = options.config.threads;
    manifest.config_fingerprint = fingerprint;
    manifest.total_batches = total_batches;
    manifest.workers = options.workers;
  }

  const fault::WorkerChaosPlan chaos = fault::make_worker_chaos(
      options.worker_chaos, options.config.seed, options.workers,
      total_batches);

  std::vector<WorkerProc> procs(options.workers);
  for (std::size_t w = 0; w < options.workers; ++w) {
    WorkerProc& proc = procs[w];
    proc.index = w;
    proc.mask = proxy_mask_for(options.config.seed, w, options.workers,
                               policy::kProxyCount);
    proc.directory = (dir / shard_dir_name(w)).string();
  }
  for (const fault::WorkerChaosEvent& event : chaos.events) {
    if (event.worker >= procs.size()) continue;
    switch (event.kind) {
      case fault::WorkerChaosEvent::Kind::kKill:
        procs[event.worker].kills.emplace_back(event.after_batch, false);
        break;
      case fault::WorkerChaosEvent::Kind::kStall:
        procs[event.worker].stall_after_batch = event.after_batch;
        break;
      case fault::WorkerChaosEvent::Kind::kGarble:
        procs[event.worker].garble_batch = event.after_batch;
        break;
    }
  }

  // Shards already resolved before any fork: surplus workers that own no
  // proxies, and (on resume) shards whose own manifest says complete.
  const bool rerun_of_complete = manifest.complete();
  for (WorkerProc& proc : procs) {
    if (proc.mask == 0) {
      proc.state = WorkerProc::State::kCompleted;
      continue;
    }
    if (!options.resume) continue;
    const std::string shard_manifest =
        (fs::path{proc.directory} / durable::RunManifest::kFileName).string();
    std::error_code shard_ec;
    if (!fs::exists(shard_manifest, shard_ec) || shard_ec) continue;
    try {
      if (durable::RunManifest::load(shard_manifest).complete())
        proc.state = WorkerProc::State::kCompleted;
    } catch (const std::runtime_error&) {
      // Unreadable shard manifest on resume: let the worker's own resume
      // logic refuse it with a precise message.
    }
  }
  if (rerun_of_complete)
    for (WorkerProc& proc : procs)
      if (proc.unresolved()) {
        // A completed coordinator manifest is authoritative: shards it
        // abandoned stay abandoned on a re-merge, they are not re-run.
        const bool degraded =
            std::find(manifest.degraded_shards.begin(),
                      manifest.degraded_shards.end(),
                      shard_dir_name(proc.index)) !=
            manifest.degraded_shards.end();
        proc.state = degraded ? WorkerProc::State::kAbandoned
                              : WorkerProc::State::kCompleted;
      }

  if (!rerun_of_complete) {
    manifest.state = "in_progress";
    manifest.save(manifest_path);
  }

  const SigpipeIgnored sigpipe_ignored;
  std::uint64_t data_bytes = 0;

  const auto spawn = [&](WorkerProc& proc) {
    util::Pipe status = util::make_pipe();
    util::Pipe data;
    try {
      data = util::make_pipe();
    } catch (...) {
      util::close_fd(status.read_fd);
      util::close_fd(status.write_fd);
      throw;
    }
    std::fflush(nullptr);  // no duplicated buffered stdio in the child
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const int fd : {status.read_fd, status.write_fd, data.read_fd,
                           data.write_fd})
        util::close_fd(fd);
      throw std::runtime_error(std::string("shard: fork: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: drop every coordinator-side fd — another worker's data
      // pipe held open here would hide the coordinator's death from that
      // worker — run the shard, _Exit (no destructors or atexit — the
      // parent owns those).
      util::close_fd(status.read_fd);
      util::close_fd(data.write_fd);
      for (const WorkerProc& other : procs) {
        util::close_fd(other.status_fd);
        util::close_fd(other.data_fd);
      }
      WorkerSpec spec;
      spec.scenario = &scenario;
      spec.worker = proc.index;
      spec.workers = options.workers;
      spec.proxy_mask = proc.mask;
      spec.directory = proc.directory;
      spec.commit_interval = options.commit_interval;
      if (proc.attempts == 0 &&
          proc.stall_after_batch != static_cast<std::size_t>(-1)) {
        spec.stall_after_batch = proc.stall_after_batch;
        spec.stall_seconds = static_cast<unsigned>(
            std::max<std::uint64_t>(1, options.heartbeat_ms * 4 / 1000));
      }
      std::_Exit(run_worker(spec, status.write_fd, data.read_fd));
    }
    util::close_fd(status.write_fd);
    util::close_fd(data.read_fd);
    util::set_nonblocking(status.read_fd);
    util::set_nonblocking(data.write_fd);
    util::grow_pipe(data.write_fd);
    proc.pid = pid;
    proc.status_fd = status.read_fd;
    proc.data_fd = data.write_fd;
    proc.reader = util::FrameReader{};
    proc.hello_seen = false;
    proc.next_input = 0;
    proc.next_report = 0;
    proc.outbox.clear();
    proc.outbox_sent = 0;
    proc.last_frame_ms = now_ms();
    ++proc.attempts;
    ++result.spawns;
    proc.state = WorkerProc::State::kRunning;
  };

  const auto hard_kill = [](WorkerProc& proc) {
    if (proc.pid > 0) ::kill(proc.pid, SIGKILL);
  };

  // Writes queued input until the pipe is full. A worker that died
  // mid-write (EPIPE) loses its queue here; the EOF on its status pipe
  // drives the reap and restart.
  const auto flush = [&](WorkerProc& proc) {
    while (proc.data_fd >= 0 && proc.outbox_sent < proc.outbox.size()) {
      const ssize_t wrote =
          ::write(proc.data_fd, proc.outbox.data() + proc.outbox_sent,
                  proc.outbox.size() - proc.outbox_sent);
      if (wrote > 0) {
        proc.outbox_sent += static_cast<std::size_t>(wrote);
        data_bytes += static_cast<std::uint64_t>(wrote);
        continue;
      }
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      break;
    }
    proc.outbox.clear();
    proc.outbox_sent = 0;
  };

  // Ends a worker's input: its data pipe closes, its queue is dropped.
  const auto close_input = [](WorkerProc& proc) {
    util::close_fd(proc.data_fd);
    proc.data_fd = -1;
    proc.outbox.clear();
    proc.outbox_sent = 0;
  };

  // Resolve a dead child (status pipe EOF already seen): reap, then
  // decide completed / interrupted / backoff-restart / abandoned.
  const auto reap = [&](WorkerProc& proc, bool cancelling) {
    util::close_fd(proc.status_fd);
    proc.status_fd = -1;
    close_input(proc);
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(proc.pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    proc.pid = -1;
    const int code =
        WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    if (code == kWorkerCompleted) {
      proc.state = WorkerProc::State::kCompleted;
      return;
    }
    if (cancelling) {
      proc.state = WorkerProc::State::kInterrupted;
      return;
    }
    // Real death: signal, error exit, or a stray interrupt. The shard's
    // checkpoint makes a restart cheap — at most commit_interval-1
    // batches re-run, bit-identically.
    if (proc.restarts_used < options.restart_budget) {
      ++proc.restarts_used;
      ++result.restarts;
      std::uint64_t backoff = options.restart_backoff_ms;
      for (std::size_t i = 1; i < proc.restarts_used; ++i)
        backoff = std::min(options.restart_backoff_cap_ms, backoff * 2);
      backoff = std::min(options.restart_backoff_cap_ms, backoff);
      proc.restart_at_ms = now_ms() + backoff;
      proc.state = WorkerProc::State::kBackoff;
      return;
    }
    proc.state = WorkerProc::State::kAbandoned;
    ++result.shards_abandoned;
  };

  // Phase 1 for the workers: generates the lowest batch a live worker
  // still needs — once for every worker waiting on it, and again only for
  // a restarted worker catching up — and queues each its own proxies'
  // requests. Waits for every live worker's HELLO (which names where it
  // starts), and while any worker at that batch has kBatchesAhead batches
  // unreported. Returns true when it queued a batch.
  workload::RoutedBatch batch;
  bool have_batch = false;
  const auto feed = [&]() {
    const auto waiting = [&](const WorkerProc& proc) {
      return proc.state == WorkerProc::State::kRunning && proc.hello_seen &&
             proc.next_input < total_batches;
    };
    std::size_t b = total_batches;
    for (const WorkerProc& proc : procs) {
      if (proc.state == WorkerProc::State::kRunning && !proc.hello_seen)
        return false;
      if (waiting(proc)) b = std::min(b, proc.next_input);
    }
    if (b == total_batches) return false;
    for (const WorkerProc& proc : procs)
      if (waiting(proc) && proc.next_input == b &&
          proc.next_input >= proc.next_report + kBatchesAhead)
        return false;
    if (!have_batch || batch.index != b) {
      have_batch = scenario.generate_batch(b, batch, options.cancel);
      if (!have_batch) return false;  // cancelled mid-batch
    }
    for (WorkerProc& proc : procs) {
      if (!waiting(proc) || proc.next_input != b) continue;
      if (!proc.owes_progress()) proc.last_frame_ms = now_ms();
      proc.outbox.erase(0, proc.outbox_sent);
      proc.outbox_sent = 0;
      append_batch_frame(batch, proc.mask, proc.outbox);
      if (proc.attempts == 1 && b == proc.garble_batch)
        proc.outbox.back() ^= 0x5A;  // worker-garble: the CRC must catch it
      ++proc.next_input;
    }
    return true;
  };

  bool cancelling = false;
  const auto any_unresolved = [&] {
    for (const WorkerProc& proc : procs)
      if (proc.unresolved()) return true;
    return false;
  };

  while (any_unresolved()) {
    const std::uint64_t now = now_ms();

    if (!cancelling && options.cancel && options.cancel->cancelled()) {
      // Fan the stop out: every live worker gets SIGTERM (its own handler
      // turns that into a cooperative cancel + checkpoint flush) and the
      // end of its input, which stops it the same way should the signal
      // land before its handler is installed; pending restarts are
      // dropped.
      cancelling = true;
      for (WorkerProc& proc : procs) {
        if (proc.state == WorkerProc::State::kRunning && proc.pid > 0) {
          ::kill(proc.pid, SIGTERM);
          close_input(proc);
        } else if (proc.state == WorkerProc::State::kIdle ||
                   proc.state == WorkerProc::State::kBackoff) {
          proc.state = WorkerProc::State::kInterrupted;
        }
      }
    }

    for (WorkerProc& proc : procs) {
      if (cancelling) break;
      if (proc.state == WorkerProc::State::kIdle ||
          (proc.state == WorkerProc::State::kBackoff &&
           now >= proc.restart_at_ms))
        spawn(proc);
    }

    const bool fed = !cancelling && feed();
    for (WorkerProc& proc : procs)
      if (proc.state == WorkerProc::State::kRunning) flush(proc);

    std::vector<pollfd> fds;
    std::vector<WorkerProc*> polled;
    for (WorkerProc& proc : procs) {
      if (proc.state != WorkerProc::State::kRunning || proc.status_fd < 0)
        continue;
      fds.push_back({proc.status_fd, POLLIN, 0});
      polled.push_back(&proc);
      if (proc.outbox_sent < proc.outbox.size()) {
        fds.push_back({proc.data_fd, POLLOUT, 0});
        polled.push_back(&proc);
      }
    }
    if (fds.empty()) {
      // Nothing live — only backoff timers (or a cancel) to wait out.
      struct timespec nap {0, 10'000'000};  // 10ms
      ::nanosleep(&nap, nullptr);
      continue;
    }
    // Right after queuing a batch, only look: the next one may be ready.
    const int ready = ::poll(fds.data(), fds.size(), fed ? 0 : 50);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal — loop re-checks cancel
      throw std::runtime_error(std::string("shard: poll: ") +
                               std::strerror(errno));
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      WorkerProc& proc = *polled[i];
      if (fds[i].fd != proc.status_fd) {
        if (proc.state == WorkerProc::State::kRunning) flush(proc);
        continue;
      }
      bool open = true;
      try {
        open = proc.reader.pump(proc.status_fd);
      } catch (const std::runtime_error&) {
        // Unreadable status channel: the worker is insane; treat as dead
        // (its checkpoint, not its chatter, is the real record).
        hard_kill(proc);
        open = false;
      }
      try {
        while (const auto payload = proc.reader.next()) {
          const auto message = decode(*payload);
          if (!message) continue;
          proc.last_frame_ms = now_ms();
          switch (message->type) {
            case MessageType::kHello:
              proc.hello_seen = true;
              proc.next_input = static_cast<std::size_t>(
                  std::min<std::uint64_t>(message->status, total_batches));
              proc.next_report = proc.next_input;
              break;
            case MessageType::kBatchDone:
              for (auto& [after_batch, fired] : proc.kills) {
                if (fired || proc.attempts != 1) continue;
                if (message->batch < after_batch) continue;
                fired = true;
                ++result.kills_injected;
                hard_kill(proc);
              }
              [[fallthrough]];
            case MessageType::kHeartbeat:
              proc.next_report = std::max<std::size_t>(
                  proc.next_report,
                  static_cast<std::size_t>(
                      std::min<std::uint64_t>(message->batch,
                                              total_batches - 1)) +
                      1);
              break;
            case MessageType::kShutdown:
              break;
          }
        }
      } catch (const util::FrameError&) {
        hard_kill(proc);
        open = false;
      }
      if (!open) reap(proc, cancelling);
    }

    if (options.heartbeat_ms > 0) {
      const std::uint64_t checked = now_ms();
      for (WorkerProc& proc : procs) {
        if (proc.state != WorkerProc::State::kRunning ||
            !proc.owes_progress())
          continue;
        if (checked - proc.last_frame_ms <= options.heartbeat_ms) continue;
        ++result.heartbeat_misses;
        hard_kill(proc);
        // One miss, one kill: the EOF → reap path takes it from here.
        proc.last_frame_ms = checked;
      }
    }
  }

  if (obs::Context* const ctx = options.obs) {
    obs::add(obs::counter(ctx, "shard.spawns"), result.spawns);
    obs::add(obs::counter(ctx, "shard.restarts"), result.restarts);
    obs::add(obs::counter(ctx, "shard.heartbeat_misses"),
             result.heartbeat_misses);
    obs::add(obs::counter(ctx, "shard.kills_injected"),
             result.kills_injected);
    obs::add(obs::counter(ctx, "shard.shards_abandoned"),
             result.shards_abandoned);
    obs::add(obs::counter(ctx, "shard.data_bytes"), data_bytes);
  }

  const bool all_resolved_clean = [&] {
    for (const WorkerProc& proc : procs)
      if (proc.state != WorkerProc::State::kCompleted &&
          proc.state != WorkerProc::State::kAbandoned)
        return false;
    return true;
  }();

  if (!all_resolved_clean) {
    // Interrupted: every shard flushed its own checkpoint on the way
    // down; the whole topology resumes with --resume.
    manifest.state = "interrupted";
    manifest.save(manifest_path);
    result.completed = false;
    return result;
  }

  // Merge the shards — byte-identical to the single-process run when all
  // survived; the committed prefix of any shard we had to abandon.
  std::vector<ShardInput> inputs;
  for (const WorkerProc& proc : procs) {
    if (proc.mask == 0) continue;
    ShardInput input;
    input.name = shard_dir_name(proc.index);
    input.directory = proc.directory;
    input.proxy_mask = proc.mask;
    input.degraded = proc.state == WorkerProc::State::kAbandoned;
    inputs.push_back(std::move(input));
  }
  MergeResult merged = merge_shards(inputs, options.out_path);
  result.records = merged.records;
  result.shards = std::move(merged.shards);
  result.read_stats = merged.combined;
  result.output = merged.output;
  for (const ShardContribution& shard : result.shards)
    if (shard.degraded) result.degraded_shards.push_back(shard.name);

  manifest.state = "complete";
  manifest.next_batch = manifest.total_batches;
  manifest.degraded_shards = result.degraded_shards;
  manifest.upsert_artifact(
      {options.out_path, "output", merged.output.bytes, merged.output.crc32,
       -1});
  for (const ShardInput& input : inputs) {
    const std::string shard_manifest =
        (fs::path{input.directory} / durable::RunManifest::kFileName).string();
    std::error_code shard_ec;
    if (!fs::exists(shard_manifest, shard_ec) || shard_ec) continue;
    const util::FileDigest digest = util::crc32_file(shard_manifest);
    manifest.upsert_artifact(
        {input.name + "/" + std::string(durable::RunManifest::kFileName),
         "shard", digest.bytes, digest.crc32, -1});
  }
  manifest.save(manifest_path);
  result.completed = true;
  return result;
}

}  // namespace syrwatch::shard
