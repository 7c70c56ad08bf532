// syrwatchctl — command-line front end for the syrwatch library.
//
//   syrwatchctl generate --out leak.csv [--requests N] [--seed S]
//                        [--format csv|col|both] [--no-leak-filter]
//                        [--fault-profile NAME]
//                        [--checkpoint-dir DIR [--resume]]
//                        [--checkpoint-interval K] [--deadline SECONDS]
//                        [--workers N [--restart-budget K]
//                         [--heartbeat-ms T] [--backoff-ms B]
//                         [--worker-chaos NAME]]
//       Simulate the deployment and write the log in Blue Coat csv form
//       (atomically: temp + rename, never a torn csv). --format=col writes
//       the checksummed columnar container (SYRCOL1) instead; both writes
//       the csv at --out plus the container next to it (.col). --fault-profile
//       injects proxy outages/brownouts/flapping (see fault::make_profile
//       for the named profiles). With --checkpoint-dir the run appends
//       each batch to a crash-safe spool and commits a durable manifest
//       every K batches (default 8): SIGINT or an expired --deadline
//       flushes the last complete batch and exits 0 with a resume hint,
//       and --resume continues the run to a log bit-identical to an
//       uninterrupted one (any --threads value).
//       --workers N shards the farm across N supervised worker processes
//       (requires --checkpoint-dir, csv format): each worker owns a
//       deterministic subset of the proxies with its own durable
//       checkpoint and filters only their requests, which the coordinator
//       generates once and streams to it; a dead worker is restarted with
//       capped exponential backoff and resumes from its own manifest, a
//       worker whose coordinator died commits and stops, and the surviving
//       spools k-way merge into --out — byte-identical to --workers 1 and
//       to the single-process path when every shard survives. A shard
//       that exhausts --restart-budget (default 3) is abandoned: the run
//       still completes (exit 0) with its committed prefix merged and
//       explicit [DEGRADED DATA] annotations. --heartbeat-ms T also
//       SIGKILLs+restarts a worker silent for T ms; --worker-chaos
//       injects real process faults (fault::make_worker_chaos) for drills.
//       --storage-fault NAME[:N] routes every durable write through a
//       seeded FaultyVfs (DESIGN.md §4.13): enospc, short-writes,
//       eintr-storm, fsync-fail, power-cut, torn-tail. Out-of-space
//       degrades to a resumable interrupted checkpoint (exit 0); a
//       simulated power cut exits 9 after dropping un-fsynced bytes.
//
//   syrwatchctl verify DIR|MANIFEST|CONTAINER
//       Integrity-check every artifact a run manifest lists (size +
//       CRC32) — detects a single flipped byte in the committed spool,
//       farm state blob, or recorded output file. A sharded run's
//       manifest recurses into every per-worker checkpoint in the same
//       invocation, naming the failing shard on mismatch. Given a
//       columnar container instead, re-checks its footer, index, and
//       every page checksum.
//
//   syrwatchctl convert IN OUT
//       Convert between the csv log and the columnar container (the
//       direction is inferred from IN's bytes). csv -> col -> csv
//       round-trips byte-identically.
//
//   syrwatchctl inspect FILE [--bin-hours H]
//       Damage-tolerant triage of an on-disk log: parse statistics
//       (lines recovered/skipped by reason — or blocks/rows recovered for
//       a columnar container) plus the per-proxy/per-day coverage table
//       and gap windows.
//
//   syrwatchctl report FILE [--overview] [--seed S]
//       Render the paper-order report (or just the headline overview with
//       --overview) straight from a log file. The Dsample/Duser/Ddenied
//       views are carved out of the file-backed Dfull as scan-layer
//       masks — no row materialization — and the GeoIP/relay/torrent
//       lookups come from a fresh scenario environment built at --seed
//       (pass the log's generate seed so they match the traffic).
//
//   syrwatchctl stats FILE
//       Table 3-style traffic breakdown.
//
//   syrwatchctl top FILE [--class censored|allowed|error] [--k N]
//       Top domains per traffic class (Table 4/5 style).
//
//   syrwatchctl discover FILE [--min-count N]
//       Run the §5.4 iterative censored-string discovery.
//
//   syrwatchctl users FILE
//       User-based analysis (Fig. 4 style; needs hashed client ids).
//
//   syrwatchctl redirects FILE
//       policy_redirect hosts (Table 7 style).
//
//   syrwatchctl weather FILE --keyword WORD [--bin-hours H]
//       Per-window enforcement intensity for one keyword.
//
//   syrwatchctl profile [--requests N] [--seed S] [--threads T]
//                       [--fault-profile NAME]
//       Run a reduced study end to end with the observability layer
//       attached and print where the time went: run phases, per-stage
//       wall-time breakdown, and the pipeline event counters.
//
// Every subcommand also accepts `--metrics FILE`, which writes the run's
// counters, stage timings, and phase breakdown as a syrwatch.metrics.v1
// JSON document (see src/obs/export.h for the schema).
//
// All analysis subcommands accept any csv produced by `generate` (or by
// proxy::write_log) as well as any columnar container produced by
// `generate --format=col` or `convert`: one shared loader sniffs the
// format from the file's first bytes (pin it with `--format csv|col`),
// and every analyzer runs as the same partitioned parallel scan on either
// backend, so `--threads T` is accepted uniformly and yields identical
// output at any value.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/coverage.h"
#include "analysis/redirects.h"
#include "analysis/scan.h"
#include "analysis/stream.h"
#include "analysis/stream_report.h"
#include "analysis/string_discovery.h"
#include "analysis/top_domains.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "analysis/weather.h"
#include "colfmt/container.h"
#include "core/report.h"
#include "core/study.h"
#include "durable/checkpoint.h"
#include "durable/manifest.h"
#include "fault/profiles.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "policy/syria.h"
#include "proxy/log_io.h"
#include "shard/coordinator.h"
#include "util/atomic_io.h"
#include "util/cancel.h"
#include "util/checksum.h"
#include "util/cli.h"
#include "util/simtime.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/vfs.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  syrwatchctl generate --out FILE [--requests N] [--seed S]"
      " [--threads T] [--format csv|col|both] [--no-leak-filter]"
      " [--fault-profile NAME]"
      " [--checkpoint-dir DIR [--resume]] [--deadline SECONDS]"
      " [--storage-fault SCHEDULE[:N]]"
      " [--workers N [--restart-budget K] [--heartbeat-ms T]"
      " [--backoff-ms B] [--worker-chaos NAME]]\n"
      "  syrwatchctl verify DIR|MANIFEST|CONTAINER\n"
      "  syrwatchctl convert IN OUT\n"
      "  syrwatchctl inspect FILE [--bin-hours H]\n"
      "  syrwatchctl report FILE [--overview] [--seed S]\n"
      "  syrwatchctl stats FILE\n"
      "  syrwatchctl top FILE [--class censored|allowed|error] [--k N]\n"
      "  syrwatchctl discover FILE [--min-count N]\n"
      "  syrwatchctl users FILE\n"
      "  syrwatchctl redirects FILE\n"
      "  syrwatchctl weather FILE --keyword WORD [--bin-hours H]\n"
      "  syrwatchctl watch DIR|SPOOL [--interval S] [--bin S]"
      " [--window-bins N] [--top K] [--json FILE] [--once] [--follow]"
      " [--deadline SECONDS]\n"
      "  syrwatchctl profile [--requests N] [--seed S] [--threads T]"
      " [--fault-profile NAME]\n"
      "every subcommand also accepts: --metrics FILE (write"
      " syrwatch.metrics.v1 JSON); every analysis subcommand also accepts"
      " --threads T and --format auto|csv|col\n");
  return 2;
}

int flag_error(const char* command, const util::CliFlags& flags) {
  std::fprintf(stderr, "syrwatchctl %s: %s\n", command, flags.error().c_str());
  return usage();
}

double seconds_since(std::uint64_t start_nanos) {
  return static_cast<double>(obs::monotonic_nanos() - start_nanos) * 1e-9;
}

/// The --metrics plumbing every subcommand funnels through: one registry
/// plus the coarse phase list, flushed as syrwatch.metrics.v1 JSON when the
/// user asked for a file (and kept entirely in memory otherwise).
class MetricsOutput {
 public:
  explicit MetricsOutput(const util::CliFlags& flags)
      : path_(flags.get("--metrics").value_or("")),
        start_(obs::monotonic_nanos()) {}

  obs::Context* context() noexcept { return &context_; }
  obs::MetricsRegistry& registry() noexcept { return registry_; }
  std::vector<obs::PhaseTiming>& phases() noexcept { return phases_; }

  void add_phase(std::string name, double seconds, std::uint64_t items) {
    phases_.push_back({std::move(name), seconds, items});
  }

  double total_seconds() const { return seconds_since(start_); }

  /// Writes the document when --metrics was given — atomically, so a
  /// crash or full disk never leaves a torn half-document that downstream
  /// dashboards would misparse. Returns false on I/O failure (the
  /// subcommand should exit non-zero).
  bool write(const char* command) {
    if (path_.empty()) return true;
    try {
      util::atomic_write_file(path_,
                              obs::to_json(registry_.snapshot(), command,
                                           phases_, total_seconds()));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cannot write %s: %s\n", path_.c_str(),
                   error.what());
      return false;
    }
    return true;
  }

 private:
  obs::MetricsRegistry registry_;
  obs::Context context_{&registry_};
  std::vector<obs::PhaseTiming> phases_;
  std::string path_;
  std::uint64_t start_;
};

/// --out sibling for the container when --format=both: leak.csv ->
/// leak.col, anything else gets .col appended.
std::string sibling_col_path(const std::string& out_path) {
  if (out_path.size() > 4 &&
      out_path.compare(out_path.size() - 4, 4, ".csv") == 0)
    return out_path.substr(0, out_path.size() - 4) + ".col";
  return out_path + ".col";
}

/// analysis::open_source() plus the shared "load" phase record and row
/// counter; the format override comes from the subcommand's --format
/// flag. A strict open refused only for a torn tail gets actionable
/// advice appended: the typed error code is what lets us say that
/// `inspect` (a lenient load) would recover the intact prefix.
analysis::OpenedSource load_source_phase(const std::string& path,
                                         const util::CliFlags& flags,
                                         MetricsOutput& metrics,
                                         std::size_t threads,
                                         bool lenient = false) {
  const std::string format{flags.get("--format").value_or("auto")};
  const std::uint64_t start = obs::monotonic_nanos();
  auto loaded = [&] {
    try {
      return analysis::open_source(path, {.format = format,
                                          .lenient = lenient,
                                          .threads = threads,
                                          .obs = metrics.context()});
    } catch (const analysis::SourceOpenError& err) {
      if (err.code() == analysis::SourceOpenErrorCode::kTornTail)
        throw std::runtime_error(std::string(err.what()) +
                                 " — `syrwatchctl inspect` recovers the "
                                 "intact prefix");
      throw;
    }
  }();
  obs::add(obs::counter(metrics.context(), "cli.rows_loaded"),
           loaded.rows());
  metrics.add_phase("load", seconds_since(start), loaded.rows());
  return loaded;
}

/// Parses the shared shape `subcommand FILE [flags]`: one positional
/// argument, or a usage error naming what went wrong.
bool single_input(const char* command, const util::CliFlags& flags,
                  std::string& path) {
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "syrwatchctl %s: expected exactly one input file\n",
                 command);
    return false;
  }
  path = flags.positional().front();
  return true;
}

/// Process-wide cancellation token SIGINT/SIGTERM flip (via
/// util::install_stop_signals — sigaction without SA_RESTART, so a
/// coordinator blocked in poll() wakes immediately; forked shard workers
/// reinstall onto their own token).
util::CancelToken g_cancel;

/// The --workers path of `generate`: instead of running the scenario
/// in-process, forks the shard farm under the supervising coordinator
/// (src/shard). Shares the single-process resume contract — an interrupt
/// leaves every shard checkpointed and exits 0 with a hint — and renders
/// the [DEGRADED DATA] block plus coverage gaps when a shard exhausted its
/// restart budget and was abandoned.
int cmd_generate_sharded(const util::CliFlags& flags,
                         const workload::ScenarioConfig& config,
                         const std::string& out_path,
                         const std::string& checkpoint_dir,
                         std::size_t workers) {
  shard::CoordinatorOptions options;
  options.config = config;
  options.directory = checkpoint_dir;
  options.out_path = out_path;
  options.workers = workers;
  options.resume = flags.has("--resume");
  options.commit_interval =
      static_cast<std::size_t>(flags.get_u64("--checkpoint-interval", 8));
  if (options.commit_interval == 0) {
    std::fprintf(stderr,
                 "syrwatchctl generate: --checkpoint-interval must be "
                 ">= 1\n");
    return usage();
  }
  options.restart_budget =
      static_cast<std::size_t>(flags.get_u64("--restart-budget", 3));
  options.heartbeat_ms = flags.get_u64("--heartbeat-ms", 0);
  options.restart_backoff_ms = flags.get_u64("--backoff-ms", 200);
  options.worker_chaos =
      std::string(flags.get("--worker-chaos").value_or("none"));
  if (const auto deadline = flags.get("--deadline"))
    g_cancel.set_deadline_after(std::stod(std::string(*deadline)));
  // ^C, SIGTERM, or the deadline stop the whole farm gracefully: the
  // coordinator fans SIGTERM out to every worker, each shard flushes its
  // last complete batch, and the run resumes bit-identically later.
  util::install_stop_signals(g_cancel);
  options.cancel = &g_cancel;

  MetricsOutput metrics{flags};
  options.obs = metrics.context();

  const std::uint64_t start = obs::monotonic_nanos();
  const shard::ShardedRun result = shard::run_sharded(options);
  metrics.add_phase("generate", seconds_since(start), result.records);

  if (!result.completed) {
    std::printf(
        "interrupted — every shard checkpointed under %s\n"
        "resume with: syrwatchctl generate --out %s --checkpoint-dir %s "
        "--workers %zu --resume\n",
        checkpoint_dir.c_str(), out_path.c_str(), checkpoint_dir.c_str(),
        workers);
    return metrics.write("generate") ? 0 : 1;
  }

  std::printf("wrote %s records to %s (seed %llu, crc32 %s)\n",
              util::with_commas(result.records).c_str(), out_path.c_str(),
              static_cast<unsigned long long>(config.seed),
              util::to_hex32(result.output.crc32).c_str());
  std::printf("sharded across %zu workers: %s spawns, %s restarts, "
              "%s heartbeat misses, %s chaos kills\n",
              workers, util::with_commas(result.spawns).c_str(),
              util::with_commas(result.restarts).c_str(),
              util::with_commas(result.heartbeat_misses).c_str(),
              util::with_commas(result.kills_injected).c_str());

  if (!result.degraded_shards.empty()) {
    std::printf(
        "[DEGRADED DATA] %zu shard(s) abandoned after exhausting the "
        "restart budget: %s — the merge holds their committed prefixes "
        "only\n",
        result.degraded_shards.size(),
        shard::describe_degraded(result.shards).c_str());
    // The coverage view of the damage, in the same shape the study report
    // uses: re-read the merged log and bin it so the abandoned shard's
    // missing tail surfaces as per-proxy gaps, with the folded read stats
    // marking any torn tail the lenient merge recovered over.
    const auto merged = analysis::open_source(out_path);
    const auto coverage = analysis::request_coverage(
        merged.source(),
        {.bin = {3600}, .min_farm_bin_requests = 25,
         .read_stats = &result.read_stats});
    util::TextTable gaps{{"Proxy", "Gap start", "Gap end",
                          "Farm reqs in gap"}};
    for (const auto& gap : coverage.gaps)
      gaps.add_row({policy::proxy_name(gap.proxy_index),
                    util::format_datetime(gap.start),
                    util::format_datetime(gap.end),
                    util::with_commas(gap.farm_requests)});
    if (!coverage.gaps.empty())
      std::fputs(
          util::titled_block("DEGRADED DATA — coverage gaps", gaps).c_str(),
          stdout);
    if (coverage.truncated_tail)
      std::printf(
          "[DEGRADED DATA] torn spool tail recovered leniently in an "
          "abandoned shard\n");
  }
  return metrics.write("generate") ? 0 : 1;
}

int cmd_generate(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--out");
  flags.value_flag("--requests");
  flags.value_flag("--seed");
  flags.value_flag("--threads");
  flags.value_flag("--fault-profile");
  flags.value_flag("--metrics");
  flags.value_flag("--checkpoint-dir");
  flags.value_flag("--checkpoint-interval");
  flags.value_flag("--deadline");
  flags.value_flag("--abort-after-batches");
  flags.value_flag("--format");
  flags.value_flag("--workers");
  flags.value_flag("--restart-budget");
  flags.value_flag("--heartbeat-ms");
  flags.value_flag("--backoff-ms");
  flags.value_flag("--worker-chaos");
  flags.value_flag("--storage-fault");
  flags.bool_flag("--no-leak-filter");
  flags.bool_flag("--resume");
  if (!flags.parse(argc, argv)) return flag_error("generate", flags);
  const auto out_flag = flags.get("--out");
  if (!out_flag) {
    std::fprintf(stderr, "syrwatchctl generate: --out FILE is required\n");
    return usage();
  }
  const std::string out_path{*out_flag};
  const std::string format{flags.get("--format").value_or("csv")};
  if (format != "csv" && format != "col" && format != "both") {
    std::fprintf(stderr,
                 "syrwatchctl generate: --format must be csv, col, or both "
                 "(got \"%s\")\n",
                 format.c_str());
    return usage();
  }
  const bool want_csv = format != "col";
  const bool want_col = format != "csv";
  const std::string col_path =
      format == "col" ? out_path : sibling_col_path(out_path);
  const std::string checkpoint_dir{
      flags.get("--checkpoint-dir").value_or("")};
  if (flags.has("--resume") && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "syrwatchctl generate: --resume requires --checkpoint-dir\n");
    return usage();
  }

  // Storage chaos hook (tools/ci-storage-chaos.sh): install a seeded
  // FaultyVfs as the process default so every durable writer in the run —
  // spool, farm state, manifest, csv/col artifacts — is exercised.
  static std::unique_ptr<util::FaultyVfs> storage_chaos;
  if (const auto fault_spec = flags.get("--storage-fault")) {
    try {
      storage_chaos = std::make_unique<util::FaultyVfs>(
          util::system_vfs(),
          util::StorageFaultSchedule::parse(*fault_spec));
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "syrwatchctl generate: %s\n", error.what());
      return usage();
    }
    util::set_default_vfs(storage_chaos.get());
  }

  workload::ScenarioConfig config;
  config.total_requests = flags.get_u64("--requests", 500'000);
  config.seed = flags.get_u64("--seed", config.seed);
  // Worker count for the pipeline; the emitted log is identical for any
  // value (0 = one per hardware thread) — including across an
  // interrupt/resume pair that changes it.
  config.threads = flags.get_u64("--threads", 0);
  if (flags.has("--no-leak-filter")) config.apply_leak_filter = false;
  if (const auto profile = flags.get("--fault-profile"))
    config.fault_profile = *profile;  // make_profile rejects unknown names

  if (flags.get("--workers")) {
    const std::size_t workers =
        static_cast<std::size_t>(flags.get_u64("--workers", 2));
    if (workers == 0) {
      std::fprintf(stderr, "syrwatchctl generate: --workers must be >= 1\n");
      return usage();
    }
    if (checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "syrwatchctl generate: --workers requires "
                   "--checkpoint-dir (each shard checkpoints there)\n");
      return usage();
    }
    if (format != "csv") {
      std::fprintf(stderr,
                   "syrwatchctl generate: --workers writes csv only (the "
                   "shard merge is byte-level); drop --format %s\n",
                   format.c_str());
      return usage();
    }
    if (flags.get("--abort-after-batches")) {
      std::fprintf(stderr,
                   "syrwatchctl generate: --abort-after-batches is a "
                   "single-process crash hook; use --worker-chaos to kill "
                   "real workers\n");
      return usage();
    }
    return cmd_generate_sharded(flags, config, out_path, checkpoint_dir,
                                workers);
  }

  const util::CancelToken* cancel = nullptr;
  if (const auto deadline = flags.get("--deadline")) {
    g_cancel.set_deadline_after(std::stod(std::string(*deadline)));
    cancel = &g_cancel;
  }
  if (!checkpoint_dir.empty()) {
    // Graceful stop: first ^C flushes the last complete batch and exits
    // cleanly with a resume hint (a second ^C during the flush still
    // kills the process the hard way — the checkpoint stays consistent,
    // that is the whole point of the commit ordering).
    util::install_stop_signals(g_cancel);
    cancel = &g_cancel;
  }

  MetricsOutput metrics{flags};
  workload::SyriaScenario scenario{config};
  scenario.set_obs(metrics.context());

  // The output csv lands via temp + rename: readers never see a torn
  // file, and an interrupted run leaves no half-written artifact behind.
  // With a checkpoint the records are already serialized into the spool,
  // so the run streams nothing per record and --out is the spool itself,
  // promoted by rename once the run completes.
  std::unique_ptr<util::AtomicFileWriter> out;
  if (want_csv && checkpoint_dir.empty()) {
    out = std::make_unique<util::AtomicFileWriter>(out_path);
    out->write(proxy::log_csv_header());
    out->write("\n");
  }
  // The columnar container is fed straight from the sink — under a
  // checkpoint the sink sees replayed + fresh records in deterministic
  // order, so a resumed run still produces a complete container.
  std::unique_ptr<colfmt::Writer> col;
  if (want_col) col = std::make_unique<colfmt::Writer>(col_path);
  std::uint64_t written = 0;
  std::string line;  // one reused line buffer
  const auto sink = [&](const proxy::LogRecord& record) {
    if (out) {
      line.clear();
      proxy::append_csv(proxy::view_of(record), line);
      out->write(line);
    }
    if (col) col->add(record);
    ++written;
  };

  const std::uint64_t start = obs::monotonic_nanos();
  bool completed;
  std::string stop_reason;
  durable::RunManifest manifest;
  if (checkpoint_dir.empty()) {
    workload::RunControl control;
    control.cancel = cancel;
    completed = scenario.run(sink, control);
  } else {
    durable::CheckpointOptions checkpoint;
    checkpoint.directory = checkpoint_dir;
    checkpoint.resume = flags.has("--resume");
    checkpoint.cancel = cancel;
    checkpoint.commit_interval =
        static_cast<std::size_t>(flags.get_u64("--checkpoint-interval", 8));
    if (checkpoint.commit_interval == 0) {
      std::fprintf(stderr,
                   "syrwatchctl generate: --checkpoint-interval must be "
                   ">= 1\n");
      return usage();
    }
    if (const std::uint64_t abort_after =
            flags.get_u64("--abort-after-batches", 0);
        abort_after > 0) {
      // Crash-injection hook for tools/ci-crash-resume.sh: die without
      // unwinding once N batches are durable, like a kill -9 would.
      checkpoint.after_commit = [abort_after,
                                 count = std::uint64_t{0}](std::size_t) mutable {
        if (++count >= abort_after) {
          std::fprintf(stderr,
                       "aborting after %llu committed batches (test hook)\n",
                       static_cast<unsigned long long>(count));
          std::_Exit(3);
        }
      };
    }
    durable::CheckpointedRun run =
        durable::run_checkpointed(scenario, checkpoint, sink);
    completed = run.completed;
    stop_reason = std::move(run.stop_reason);
    manifest = std::move(run.manifest);
  }
  metrics.add_phase("generate", seconds_since(start), written);

  if (!completed) {
    if (out) out->abandon();  // no torn csv — the checkpoint owns progress
    if (col) col->abandon();  // ditto: a resumed run rewrites the container
    if (checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "interrupted after %s records — no --checkpoint-dir, "
                   "progress discarded\n",
                   util::with_commas(written).c_str());
      return 1;
    }
    if (!stop_reason.empty())
      std::printf("storage degraded (%s) — stopped at the last durable "
                  "commit\n",
                  stop_reason.c_str());
    std::printf(
        "interrupted after %s records — checkpoint flushed to %s\n"
        "resume with: syrwatchctl generate --out %s --checkpoint-dir %s "
        "--resume\n",
        util::with_commas(written).c_str(), checkpoint_dir.c_str(),
        out_path.c_str(), checkpoint_dir.c_str());
    return metrics.write("generate") ? 0 : 1;
  }

  util::ArtifactInfo info{};
  util::ArtifactInfo col_info{};
  bool col_written = false;
  if (col) {
    try {
      col_info = col->finish();
      col_written = true;
    } catch (const util::VfsError& error) {
      // The container is a derived artifact: when the disk fills while
      // sealing it in a checkpointed csv run, the run itself is still
      // complete (the spool is the log) — warn and skip the container
      // rather than failing a finished run. A col-only run has nothing
      // else to deliver, so there it stays fatal.
      if (!error.out_of_space() || checkpoint_dir.empty() || !want_csv)
        throw;
      std::fprintf(stderr,
                   "warning: columnar container %s skipped (%s)\n",
                   col_path.c_str(), error.what());
    }
  }
  if (checkpoint_dir.empty()) {
    if (out) info = out->commit();
  } else if (want_csv) {
    info = durable::finalize_output(checkpoint_dir, manifest, out_path);
  }
  if (!checkpoint_dir.empty() && col_written) {
    // Record the container in the manifest so `syrwatchctl verify` covers
    // it like any other output artifact.
    manifest.upsert_artifact(
        {col_path, "output", col_info.bytes, col_info.crc32, -1});
    manifest.save(checkpoint_dir + "/" +
                  std::string(durable::RunManifest::kFileName));
  }
  if (format == "col") info = col_info;
  std::printf("wrote %s records to %s (seed %llu, crc32 %s)\n",
              util::with_commas(written).c_str(), out_path.c_str(),
              static_cast<unsigned long long>(config.seed),
              util::to_hex32(info.crc32).c_str());
  if (format == "both" && col_written)
    std::printf("wrote columnar container %s (%s bytes, crc32 %s)\n",
                col_path.c_str(), util::with_commas(col_info.bytes).c_str(),
                util::to_hex32(col_info.crc32).c_str());
  if (!scenario.faults().empty()) {
    std::printf("fault profile %s: %s\n", config.fault_profile.c_str(),
                scenario.faults().describe().c_str());
    std::printf("failovers: %s requests diverted off their home proxy\n",
                util::with_commas(scenario.farm().failover_total()).c_str());
  }
  return metrics.write("generate") ? 0 : 1;
}

int cmd_verify(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("verify", flags);
  std::string path;
  if (!single_input("verify", flags, path)) return usage();
  MetricsOutput metrics{flags};

  // A columnar container verifies against its own framing: footer, index
  // CRC, and every page checksum in every block.
  if (colfmt::file_looks_like_container(path)) {
    const std::uint64_t start = obs::monotonic_nanos();
    const auto report = colfmt::verify_file(path);
    metrics.add_phase("verify", seconds_since(start), report.rows);
    obs::add(obs::counter(metrics.context(), "verify.pages_checked"),
             report.pages_checked);
    obs::add(obs::counter(metrics.context(), "verify.failures"),
             report.bad_pages);
    std::printf("%s: columnar container, %s blocks, %s rows, %s pages\n",
                path.c_str(), util::with_commas(report.blocks).c_str(),
                util::with_commas(report.rows).c_str(),
                util::with_commas(report.pages_checked).c_str());
    const bool metrics_ok = metrics.write("verify");
    if (!report.ok) {
      std::fprintf(stderr, "container verification FAILED: %s\n",
                   report.first_error.c_str());
      return 1;
    }
    std::printf("container verified: footer, index, and all page "
                "checksums intact\n");
    return metrics_ok ? 0 : 1;
  }

  // Accept either the checkpoint directory or the manifest file itself.
  namespace fs = std::filesystem;
  fs::path manifest_path{path};
  std::error_code ec;
  if (fs::is_directory(manifest_path, ec))
    manifest_path /= durable::RunManifest::kFileName;
  const std::string base_dir = manifest_path.parent_path().string();

  const auto manifest = durable::RunManifest::load(manifest_path.string());
  std::printf("%s: %s run, seed %llu, %s/%s batches, fingerprint %s\n",
              manifest_path.string().c_str(), manifest.state.c_str(),
              static_cast<unsigned long long>(manifest.seed),
              util::with_commas(manifest.next_batch).c_str(),
              util::with_commas(manifest.total_batches).c_str(),
              manifest.config_fingerprint.c_str());

  const auto report =
      durable::verify_artifacts(manifest, base_dir.empty() ? "." : base_dir);
  util::TextTable table{{"Artifact", "Role", "Bytes", "CRC32", "Status"}};
  std::size_t failures = 0;
  for (const auto& check : report.checks) {
    if (!check.ok()) ++failures;
    table.add_row({check.expected.path, check.expected.role,
                   util::with_commas(check.expected.bytes),
                   util::to_hex32(check.expected.crc32),
                   std::string(check.status())});
  }
  std::fputs(util::titled_block("Artifact integrity", table).c_str(), stdout);

  // A sharded run's coordinator manifest lists each per-worker checkpoint
  // as a "shard" artifact; recurse into every one so a single `verify` of
  // the top-level directory covers the whole farm — and names the failing
  // shard rather than a bare count.
  std::size_t checked = report.checks.size();
  std::string failing_shard;
  if (manifest.workers > 0) {
    std::printf("sharded run: %llu workers%s\n",
                static_cast<unsigned long long>(manifest.workers),
                manifest.degraded_shards.empty() ? "" : ", [DEGRADED DATA]");
    for (const auto& degraded : manifest.degraded_shards)
      std::printf("  degraded shard: %s (abandoned — committed prefix "
                  "only)\n",
                  degraded.c_str());
    for (const auto& artifact : manifest.artifacts) {
      if (artifact.role != "shard") continue;
      const fs::path shard_manifest_path =
          fs::path(base_dir.empty() ? "." : base_dir) / artifact.path;
      const std::string shard_name =
          shard_manifest_path.parent_path().filename().string();
      std::size_t shard_failures = 0;
      try {
        const auto shard_manifest =
            durable::RunManifest::load(shard_manifest_path.string());
        const auto shard_report = durable::verify_artifacts(
            shard_manifest, shard_manifest_path.parent_path().string());
        checked += shard_report.checks.size();
        for (const auto& check : shard_report.checks)
          if (!check.ok()) ++shard_failures;
        std::printf("  %s: %s run, %zu artifacts, %zu failed\n",
                    shard_name.c_str(), shard_manifest.state.c_str(),
                    shard_report.checks.size(), shard_failures);
      } catch (const std::exception& error) {
        std::printf("  %s: unreadable manifest (%s)\n", shard_name.c_str(),
                    error.what());
        shard_failures = 1;
      }
      if (shard_failures > 0 && failing_shard.empty())
        failing_shard = shard_name;
      failures += shard_failures;
    }
  }

  obs::add(obs::counter(metrics.context(), "verify.artifacts_checked"),
           checked);
  obs::add(obs::counter(metrics.context(), "verify.failures"), failures);
  const bool metrics_ok = metrics.write("verify");
  if (failures > 0) {
    std::fprintf(stderr, "%zu of %zu artifacts failed verification%s%s\n",
                 failures, checked,
                 failing_shard.empty() ? "" : " — first failing shard: ",
                 failing_shard.c_str());
    return 1;
  }
  std::printf("all %zu artifacts verified\n", checked);
  return metrics_ok ? 0 : 1;
}

int cmd_convert(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--metrics");
  flags.value_flag("--block-rows");
  if (!flags.parse(argc, argv)) return flag_error("convert", flags);
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "syrwatchctl convert: expected IN OUT\n");
    return usage();
  }
  const std::string in_path = flags.positional()[0];
  const std::string out_path = flags.positional()[1];

  MetricsOutput metrics{flags};
  const std::uint64_t start = obs::monotonic_nanos();
  std::uint64_t rows = 0;
  util::ArtifactInfo info;
  const char* direction;
  if (colfmt::file_looks_like_container(in_path)) {
    direction = "col -> csv";
    const auto reader = colfmt::Reader::open(in_path);
    util::AtomicFileWriter out{out_path};
    out.write(proxy::log_csv_header());
    out.write("\n");
    std::string line;
    for (std::size_t b = 0; b < reader.block_count(); ++b) {
      const auto block = reader.decode(b);
      for (std::size_t r = 0; r < block.rows; ++r) {
        line.clear();
        proxy::append_csv(reader.record_view(block, r), line);
        out.write(line);
        ++rows;
      }
    }
    info = out.commit();
  } else {
    direction = "csv -> col";
    std::ifstream in{in_path, std::ios::binary};
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
      return 1;
    }
    colfmt::WriterOptions options;
    options.block_rows = static_cast<std::size_t>(
        flags.get_u64("--block-rows", options.block_rows));
    colfmt::Writer writer{out_path, options};
    proxy::LogLineReader reader;
    try {
      proxy::read_log_ahead(
          in, 1, reader,
          [&](proxy::LineKind kind, const proxy::ParsedLine& line) {
            if (!reader.stats().header_present)
              throw std::runtime_error(
                  in_path + ": not a syrwatch log (bad csv header)");
            if (kind == proxy::LineKind::kSkipped)
              throw std::runtime_error(
                  in_path + " line " + std::to_string(reader.stats().lines) +
                  ": " + std::string(proxy::to_string(line.diagnosis.error)) +
                  " — conversion must be lossless, refusing to drop the row");
            if (kind != proxy::LineKind::kRecord) return;
            writer.add(line.record);
            ++rows;
          });
      if (reader.stats().lines == 0)
        throw std::runtime_error(in_path + " is empty");
    } catch (const std::runtime_error& error) {
      writer.abandon();
      std::fprintf(stderr, "syrwatchctl convert: %s\n", error.what());
      return 1;
    }
    info = writer.finish();
  }
  metrics.add_phase("convert", seconds_since(start), rows);
  obs::add(obs::counter(metrics.context(), "convert.rows"), rows);
  std::printf("converted %s records (%s) into %s (%s bytes, crc32 %s)\n",
              util::with_commas(rows).c_str(), direction, out_path.c_str(),
              util::with_commas(info.bytes).c_str(),
              util::to_hex32(info.crc32).c_str());
  return metrics.write("convert") ? 0 : 1;
}

int cmd_inspect(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--bin-hours");
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("inspect", flags);
  std::string path;
  if (!single_input("inspect", flags, path)) return usage();
  const std::int64_t bin = 3600 * flags.get_i64("--bin-hours", 1);
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded =
      load_source_phase(path, flags, metrics, threads, /*lenient=*/true);
  const std::uint64_t record_count = loaded.rows();
  obs::add(obs::counter(metrics.context(), "inspect.records_recovered"),
           record_count);
  bool damaged = false;
  if (loaded.is_columnar()) {
    std::printf("columnar container: %s blocks, %s rows, %s dictionary "
                "strings\n",
                util::with_commas(loaded.columnar().block_count()).c_str(),
                util::with_commas(loaded.columnar().rows()).c_str(),
                util::with_commas(loaded.columnar().reader().dict_size())
                    .c_str());
    if (loaded.recovery().truncated_tail) {
      damaged = true;
      std::printf("recovered %s of %s bytes (%s intact blocks); damage: "
                  "%s\n",
                  util::with_commas(loaded.recovery().bytes_recovered).c_str(),
                  util::with_commas(loaded.recovery().file_bytes).c_str(),
                  util::with_commas(loaded.recovery().blocks_recovered)
                      .c_str(),
                  loaded.recovery().damage.c_str());
    }
  } else {
    obs::add(obs::counter(metrics.context(), "inspect.lines_skipped"),
             loaded.read_stats().skipped_total());
    std::fputs(loaded.read_stats().summary().c_str(), stdout);
    damaged = loaded.read_stats().skipped_total() > 0;
  }
  if (record_count == 0) {
    std::printf("no usable records — nothing to inspect\n");
    if (!metrics.write("inspect")) return 1;
    return damaged ? 1 : 0;
  }

  const std::uint64_t analyze_start = obs::monotonic_nanos();
  analysis::CoverageOptions cov_options{.bin = {bin},
                                        .min_farm_bin_requests = 25};
  if (loaded.is_columnar())
    cov_options.recovery = &loaded.recovery();
  else
    cov_options.read_stats = &loaded.read_stats();
  const analysis::CoverageReport coverage =
      analysis::request_coverage(loaded.source(), cov_options, threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), record_count);
  util::TextTable days{[&] {
    std::vector<std::string> header{"Day"};
    for (std::size_t p = 0; p < policy::kProxyCount; ++p)
      header.emplace_back(policy::proxy_name(p));
    header.emplace_back("Total");
    return header;
  }()};
  for (const auto& day : coverage.days) {
    std::vector<std::string> cells{util::format_date(day.day_start)};
    std::uint64_t total = 0;
    for (const std::uint64_t count : day.requests) {
      cells.push_back(count == 0 ? "-" : util::with_commas(count));
      total += count;
    }
    cells.push_back(util::with_commas(total));
    days.add_row(cells);
  }
  std::fputs(util::titled_block("Per-proxy daily coverage", days).c_str(),
             stdout);

  if (coverage.truncated_tail) {
    std::printf(
        "WARNING: log ends mid-record — the trailing edge of the window is "
        "an artifact boundary (torn write?), not a traffic boundary\n");
  }
  if (!coverage.gaps.empty()) {
    util::TextTable gaps{{"Proxy", "Gap start", "Gap end", "Farm reqs"}};
    for (const auto& gap : coverage.gaps) {
      gaps.add_row({std::string(policy::proxy_name(gap.proxy_index)),
                    util::format_datetime(gap.start),
                    util::format_datetime(gap.end),
                    util::with_commas(gap.farm_requests)});
    }
    std::fputs(util::titled_block("Coverage gaps (farm active, proxy silent)",
                                  gaps)
                   .c_str(),
               stdout);
  } else {
    std::printf("no coverage gaps at %lld-second bins\n",
                static_cast<long long>(bin));
  }
  return metrics.write("inspect") ? 0 : 1;
}

int cmd_stats(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("stats", flags);
  std::string path;
  if (!single_input("stats", flags, path)) return usage();
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const auto stats = analysis::traffic_stats(loaded.source(), threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), loaded.rows());
  util::TextTable table{{"Class", "# Requests", "%"}};
  table.add_row({"allowed", util::with_commas(stats.observed),
                 util::percent(stats.share(stats.observed))});
  table.add_row({"proxied", util::with_commas(stats.proxied),
                 util::percent(stats.share(stats.proxied))});
  table.add_row({"denied", util::with_commas(stats.denied),
                 util::percent(stats.share(stats.denied))});
  table.add_row({"  censored", util::with_commas(stats.censored()),
                 util::percent(stats.share(stats.censored()))});
  table.add_row({"  errors", util::with_commas(stats.errors()),
                 util::percent(stats.share(stats.errors()))});
  for (std::size_t i = 1; i < proxy::kExceptionCount; ++i) {
    const auto id = static_cast<proxy::ExceptionId>(i);
    if (stats.at(id) == 0) continue;
    table.add_row({"    " + std::string(proxy::to_string(id)),
                   util::with_commas(stats.at(id)),
                   util::percent(stats.share(stats.at(id)))});
  }
  std::fputs(util::titled_block("Traffic breakdown — " + path + " (" +
                                    util::with_commas(stats.total) +
                                    " records)",
                                table)
                 .c_str(),
             stdout);
  return metrics.write("stats") ? 0 : 1;
}

int cmd_top(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--class");
  flags.value_flag("--k");
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("top", flags);
  std::string path;
  if (!single_input("top", flags, path)) return usage();
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  analysis::TopDomainsOptions options{proxy::TrafficClass::kCensored, 10,
                                      std::nullopt};
  if (const auto klass = flags.get("--class")) {
    if (*klass == "allowed")
      options.cls = proxy::TrafficClass::kAllowed;
    else if (*klass == "error")
      options.cls = proxy::TrafficClass::kError;
    else if (*klass != "censored") {
      std::fprintf(stderr,
                   "syrwatchctl top: --class must be censored, allowed, or "
                   "error (got \"%s\")\n",
                   std::string(*klass).c_str());
      return usage();
    }
  }
  options.k = flags.get_u64("--k", 10);

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const auto top = analysis::top_domains(loaded.source(), options, threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), loaded.rows());
  util::TextTable table{{"#", "Domain", "# Requests", "%"}};
  for (std::size_t i = 0; i < top.size(); ++i) {
    table.add_row({std::to_string(i + 1), top[i].domain,
                   util::with_commas(top[i].count),
                   util::percent(top[i].share)});
  }
  std::fputs(util::titled_block(std::string("Top ") +
                                    std::string(proxy::to_string(options.cls)) +
                                    " domains",
                                table)
                 .c_str(),
             stdout);
  return metrics.write("top") ? 0 : 1;
}

int cmd_discover(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--min-count");
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("discover", flags);
  std::string path;
  if (!single_input("discover", flags, path)) return usage();
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  analysis::DiscoveryOptions options;
  options.min_count = flags.get_u64("--min-count", options.min_count);

  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const auto result = analysis::discover_censored_strings(loaded.source(),
                                                          options, threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), loaded.rows());
  util::TextTable keywords{{"Keyword", "Censored", "Proxied"}};
  for (const auto& kw : result.keywords) {
    keywords.add_row({kw.text, util::with_commas(kw.censored),
                      util::with_commas(kw.proxied)});
  }
  std::fputs(util::titled_block("Censored keywords", keywords).c_str(),
             stdout);
  util::TextTable domains{{"Domain", "Censored", "Proxied"}};
  for (const auto& domain : result.domains) {
    domains.add_row({domain.text, util::with_commas(domain.censored),
                     util::with_commas(domain.proxied)});
  }
  std::fputs(util::titled_block("Suspected domains", domains).c_str(),
             stdout);
  std::printf("explained %s of %s censored requests\n",
              util::with_commas(result.censored_requests_explained).c_str(),
              util::with_commas(result.censored_requests_total).c_str());
  return metrics.write("discover") ? 0 : 1;
}

int cmd_users(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("users", flags);
  std::string path;
  if (!single_input("users", flags, path)) return usage();
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const auto stats = analysis::user_stats(loaded.source(), threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), loaded.rows());
  if (stats.total_users == 0) {
    std::printf("no attributable users (client hashes suppressed in this "
                "log slice; Duser covers July 22-23 only)\n");
    return metrics.write("users") ? 0 : 1;
  }
  util::TextTable table{{"Metric", "Value"}};
  table.add_row({"users", util::with_commas(stats.total_users)});
  table.add_row({"censored users", util::with_commas(stats.censored_users)});
  table.add_row({"censored-user share",
                 util::percent(double(stats.censored_users) /
                               double(stats.total_users))});
  table.add_row({"censored users with >100 requests",
                 util::percent(stats.active_share_censored(100.0))});
  table.add_row({"clean users with >100 requests",
                 util::percent(stats.active_share_clean(100.0))});
  std::fputs(util::titled_block("User analysis", table).c_str(), stdout);
  return metrics.write("users") ? 0 : 1;
}

int cmd_redirects(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("redirects", flags);
  std::string path;
  if (!single_input("redirects", flags, path)) return usage();
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const auto hosts = analysis::redirect_hosts(loaded.source(), {.k = 0}, threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), loaded.rows());
  util::TextTable table{{"Host", "# Redirects", "%"}};
  for (const auto& host : hosts) {
    table.add_row({host.host, util::with_commas(host.requests),
                   util::percent(host.share)});
  }
  std::fputs(util::titled_block("policy_redirect hosts", table).c_str(),
             stdout);
  return metrics.write("redirects") ? 0 : 1;
}

int cmd_weather(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--keyword");
  flags.value_flag("--bin-hours");
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("weather", flags);
  std::string path;
  if (!single_input("weather", flags, path)) return usage();
  const auto keyword = flags.get("--keyword");
  if (!keyword) {
    std::fprintf(stderr, "syrwatchctl weather: --keyword WORD is required\n");
    return usage();
  }
  const std::int64_t bin = 3600 * flags.get_i64("--bin-hours", 1);
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  const analysis::LogSource source = loaded.source();
  if (source.rows() == 0) {
    std::printf("empty log\n");
    return metrics.write("weather") ? 0 : 1;
  }
  const auto bounds = source.time_bounds();
  const std::int64_t start = bounds.first;
  const std::int64_t end = bounds.last + 1;
  const std::vector<std::string> keywords{std::string(*keyword)};
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const auto reports = analysis::keyword_weather(
      source, keywords, {{start, end}, {bin}}, threads);
  metrics.add_phase("analyze", seconds_since(analyze_start), source.rows());
  const auto& report = reports.front();

  util::TextTable table{{"Window start", "Matched", "Censored", "Intensity"}};
  for (std::size_t b = 0; b < report.matched.size(); ++b) {
    if (report.matched[b] == 0) continue;
    table.add_row({util::format_datetime(
                       report.origin + static_cast<std::int64_t>(b) * bin),
                   util::with_commas(report.matched[b]),
                   util::with_commas(report.censored[b]),
                   util::percent(report.intensity(b))});
  }
  std::fputs(util::titled_block("Censorship weather — \"" +
                                    std::string(*keyword) + "\" (" +
                                    std::to_string(report.active_bins()) +
                                    " active windows, " +
                                    std::to_string(
                                        report.fully_enforced_bins()) +
                                    " fully enforced)",
                                table)
                 .c_str(),
             stdout);
  return metrics.write("weather") ? 0 : 1;
}

/// Online mode (DESIGN.md §4.12): tail a run's WAL spool — or any CSV
/// log being appended to — and print a rolling sketch report every
/// --interval seconds. Given a checkpoint directory the manifest doubles
/// as the stop signal: once the run leaves "in_progress" the watcher
/// drains whatever the final commit appended and exits (unless --follow
/// keeps it tailing, e.g. across a resume).
int cmd_watch(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--interval");
  flags.value_flag("--bin");
  flags.value_flag("--window-bins");
  flags.value_flag("--top");
  flags.value_flag("--json");
  flags.value_flag("--metrics");
  flags.value_flag("--deadline");
  flags.bool_flag("--once");
  flags.bool_flag("--follow");
  if (!flags.parse(argc, argv)) return flag_error("watch", flags);
  std::string path;
  if (!single_input("watch", flags, path)) return usage();

  namespace fs = std::filesystem;
  std::error_code ec;
  std::string spool_path = path;
  std::string manifest_path;
  if (fs::is_directory(fs::path{path}, ec)) {
    spool_path = (fs::path{path} / durable::kSpoolFile).string();
    manifest_path =
        (fs::path{path} / durable::RunManifest::kFileName).string();
  }

  analysis::StreamReportOptions options;
  options.bin = {flags.get_i64("--bin", 300)};
  options.window_bins =
      static_cast<std::size_t>(flags.get_u64("--window-bins", 288));
  options.top_k = static_cast<std::size_t>(flags.get_u64("--top", 10));
  const std::int64_t interval = flags.get_i64("--interval", 5);
  const std::string json_path{flags.get("--json").value_or("")};

  if (const auto deadline = flags.get("--deadline"))
    g_cancel.set_deadline_after(std::stod(std::string(*deadline)));
  util::install_stop_signals(g_cancel);

  MetricsOutput metrics{flags};
  analysis::StreamSource stream{spool_path};
  analysis::StreamAnalyzer analyzer{options, metrics.context()};

  const std::uint64_t watch_start = obs::monotonic_nanos();
  std::uint64_t high_water = 0;
  bool finishing = flags.has("--once");
  while (true) {
    stream.poll();
    high_water = analysis::scan_increment(
        stream.source(), high_water,
        [&](const analysis::Record& r) { analyzer.ingest(r); });
    auto report = analyzer.snapshot();
    report.spool_offset = stream.tail().offset();
    report.spool_pending_bytes = stream.tail().pending_bytes();
    report.spool_skipped_lines = stream.tail().stats().skipped_total();
    report.spool_gaps = stream.tail().gaps();
    std::fputs(analysis::render_stream_report(report).c_str(), stdout);
    std::fflush(stdout);
    if (!json_path.empty())
      util::atomic_write_file(json_path,
                              analysis::stream_report_json(report));

    if (finishing || g_cancel.cancelled()) break;
    if (!manifest_path.empty() && !flags.has("--follow") &&
        fs::exists(manifest_path, ec)) {
      // The run appends spool bytes *before* it commits the manifest, so
      // a terminal state can postdate our poll: drain once more, report,
      // then exit. A torn manifest mid-write just means "try next tick".
      try {
        if (durable::RunManifest::load(manifest_path).state !=
            "in_progress") {
          finishing = true;
          continue;
        }
      } catch (const std::exception&) {
      }
    }
    // Sleep in short slices so SIGINT/--deadline interrupts promptly.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(interval);
    while (std::chrono::steady_clock::now() < until &&
           !g_cancel.cancelled())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  metrics.add_phase("watch", seconds_since(watch_start), analyzer.records());
  return metrics.write("watch") ? 0 : 1;
}

int cmd_report(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--seed");
  flags.value_flag("--threads");
  flags.value_flag("--format");
  flags.value_flag("--metrics");
  flags.bool_flag("--overview");
  if (!flags.parse(argc, argv)) return flag_error("report", flags);
  std::string path;
  if (!single_input("report", flags, path)) return usage();
  const auto threads =
      static_cast<std::size_t>(flags.get_u64("--threads", 1));

  MetricsOutput metrics{flags};
  const auto loaded = load_source_phase(path, flags, metrics, threads);
  const analysis::LogSource full = loaded.source();
  if (full.rows() == 0) {
    std::printf("empty log\n");
    return metrics.write("report") ? 0 : 1;
  }

  // The report's analyzers consult scenario resources (GeoIP ranges, the
  // Tor relay directory, the torrent registry) that are deterministic in
  // the seed — build a fresh environment at --seed, which must match the
  // log's generate seed for the lookups to line up with the traffic.
  workload::ScenarioConfig config;
  config.seed = flags.get_u64("--seed", config.seed);
  const std::uint64_t env_start = obs::monotonic_nanos();
  const workload::Environment environment{config};
  metrics.add_phase("environment", seconds_since(env_start), 0);

  const std::uint64_t derive_start = obs::monotonic_nanos();
  const analysis::DerivedSources derived =
      analysis::derive_sources(full, config.seed, threads);
  metrics.add_phase("derive", seconds_since(derive_start), full.rows());

  const core::ReportSources sources{derived.full,
                                    derived.sample,
                                    derived.user,
                                    derived.denied,
                                    &environment.geoip(),
                                    &environment.relays(),
                                    &environment.torrents(),
                                    threads,
                                    metrics.context()};
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const std::string report = flags.has("--overview")
                                 ? core::render_overview(sources)
                                 : core::render_full_report(sources);
  metrics.add_phase("analyze", seconds_since(analyze_start), full.rows());
  std::fputs(report.c_str(), stdout);
  return metrics.write("report") ? 0 : 1;
}

int cmd_profile(int argc, char** argv) {
  util::CliFlags flags;
  flags.value_flag("--requests");
  flags.value_flag("--seed");
  flags.value_flag("--threads");
  flags.value_flag("--fault-profile");
  flags.value_flag("--metrics");
  if (!flags.parse(argc, argv)) return flag_error("profile", flags);
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "syrwatchctl profile: unexpected argument \"%s\"\n",
                 flags.positional().front().c_str());
    return usage();
  }

  workload::ScenarioConfig config;
  config.total_requests = flags.get_u64("--requests", 200'000);
  config.seed = flags.get_u64("--seed", config.seed);
  config.threads = flags.get_u64("--threads", 0);
  if (const auto profile = flags.get("--fault-profile"))
    config.fault_profile = *profile;

  MetricsOutput metrics{flags};
  core::Study study{config};
  study.set_obs(metrics.context());
  const auto result = study.run();
  // Drive every analyzer once so the analysis.* stages have samples; the
  // report text itself is `syrwatchctl` territory already covered by the
  // other subcommands, so profile only keeps the timings.
  const std::uint64_t analyze_start = obs::monotonic_nanos();
  const std::string report = core::render_full_report(study);
  metrics.phases() = result.metrics.phases;
  metrics.add_phase("analyze", seconds_since(analyze_start),
                    result.metrics.log_records);
  std::printf("profiled %s requests (seed %llu, %s)\n",
              util::with_commas(result.metrics.log_records).c_str(),
              static_cast<unsigned long long>(config.seed),
              config.fault_profile == "none"
                  ? "no faults"
                  : ("fault profile " + config.fault_profile).c_str());
  std::fputs(obs::render_text(metrics.registry().snapshot(),
                              metrics.phases(), metrics.total_seconds())
                 .c_str(),
             stdout);
  std::printf("report bytes rendered: %s\n",
              util::with_commas(report.size()).c_str());
  return metrics.write("profile") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command{argv[1]};
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "verify") return cmd_verify(argc, argv);
    if (command == "convert") return cmd_convert(argc, argv);
    if (command == "inspect") return cmd_inspect(argc, argv);
    if (command == "report") return cmd_report(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "top") return cmd_top(argc, argv);
    if (command == "discover") return cmd_discover(argc, argv);
    if (command == "users") return cmd_users(argc, argv);
    if (command == "redirects") return cmd_redirects(argc, argv);
    if (command == "weather") return cmd_weather(argc, argv);
    if (command == "watch") return cmd_watch(argc, argv);
    if (command == "profile") return cmd_profile(argc, argv);
  } catch (const util::SimulatedPowerLoss& loss) {
    // --storage-fault power-cut/torn-tail: the FaultyVfs has already
    // applied the damage model; die like the power did — no unwinding
    // cleanup, distinct exit code for the chaos harness.
    std::fprintf(stderr, "syrwatchctl: %s\n", loss.what());
    std::_Exit(9);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "syrwatchctl: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "syrwatchctl: unknown subcommand \"%s\"\n", argv[1]);
  return usage();
}
