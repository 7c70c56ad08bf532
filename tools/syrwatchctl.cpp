// syrwatchctl — command-line front end for the syrwatch library.
//
// Every command is one row of commands(): its name, positional arguments,
// flags and the function that runs it. main() parses and checks the flags
// against that row, runs the command with the run's one metrics registry
// and writes the `--metrics FILE` document (syrwatch.metrics.v1, see
// src/obs/export.h) once it returns. With no arguments it prints every
// command's usage, made from the same table.
//
// The log commands (inspect, report, stats, top, discover, users,
// redirects, weather) read any csv from `generate` or proxy::write_log
// and any SYRCOL1 container from `generate --format col` or `convert`:
// the format is sniffed from the file's first bytes (pin it with
// `--format csv|col`), and every analyzer runs as the same partitioned
// parallel scan on either, so `--threads T` yields identical output.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
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

double seconds_since(std::uint64_t start_nanos) {
  return static_cast<double>(obs::monotonic_nanos() - start_nanos) * 1e-9;
}

/// The run's one metrics registry and its coarse phase list. main writes
/// them as the --metrics document after the command returns.
class MetricsOutput {
 public:
  obs::Context* context() noexcept { return &context_; }
  obs::MetricsRegistry& registry() noexcept { return registry_; }
  std::vector<obs::PhaseTiming>& phases() noexcept { return phases_; }

  void add_phase(std::string name, double seconds, std::uint64_t items) {
    phases_.push_back({std::move(name), seconds, items});
  }

  void count(const char* counter, std::uint64_t value) {
    obs::add(obs::counter(&context_, counter), value);
  }

  /// Runs `work` as the "analyze" phase over `items` records.
  template <typename Work>
  auto analyze(std::uint64_t items, Work&& work) {
    const std::uint64_t start = obs::monotonic_nanos();
    auto result = work();
    add_phase("analyze", seconds_since(start), items);
    return result;
  }

  double total_seconds() const { return seconds_since(start_); }

  /// Writes the document atomically, so a crash or a full disk never
  /// leaves a torn half-document for a dashboard to misparse. Returns
  /// false on I/O failure.
  bool write(const std::string& path, std::string_view command) {
    try {
      util::atomic_write_file(path,
                              obs::to_json(registry_.snapshot(), command,
                                           phases_, total_seconds()));
      return true;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                   error.what());
      return false;
    }
  }

 private:
  obs::MetricsRegistry registry_;
  obs::Context context_{&registry_};
  std::vector<obs::PhaseTiming> phases_;
  std::uint64_t start_ = obs::monotonic_nanos();
};

/// A flag a command accepts: `--name METAVAR`, or a presence-only flag
/// when the metavar is empty. A metavar with '|' lists the only values
/// the flag takes, the first being what the command assumes without it.
/// A required flag is printed without brackets in the usage.
struct Flag {
  std::string_view name;
  std::string_view metavar = {};
  bool required = false;
};

// The flags several commands share, each declared once.
constexpr Flag kMetrics{"--metrics", "FILE"};  // every command takes it
constexpr Flag kThreads{"--threads", "T"};
constexpr Flag kDeadline{"--deadline", "SECONDS"};
constexpr Flag kSeed{"--seed", "S"};
constexpr Flag kRequests{"--requests", "N"};
constexpr Flag kFaultProfile{"--fault-profile", "NAME"};
constexpr Flag kBinHours{"--bin-hours", "H"};
/// generate writes csv|col|both; the log commands read auto|csv|col.
constexpr Flag format_flag(std::string_view formats) {
  return {"--format", formats};
}

struct Command {
  std::string_view name;
  std::string_view operands;  // the positional arguments, for the usage
  std::size_t positionals;
  std::vector<Flag> flags;
  /// Returns the exit code: 0, 1 for a failed run, 2 for a usage error
  /// (main writes no metrics document for those).
  int (*run)(const util::CliFlags& flags, MetricsOutput& metrics);
};

const std::vector<Command>& commands();

void print_usage() {
  std::string text = "usage:\n";
  for (const Command& command : commands()) {
    std::string line = "  syrwatchctl " + std::string(command.name);
    if (!command.operands.empty()) line += " " + std::string(command.operands);
    for (const Flag& flag : command.flags) {
      std::string item = std::string(flag.name);
      if (!flag.metavar.empty()) item += " " + std::string(flag.metavar);
      if (!flag.required) item = "[" + item + "]";
      if (line.size() + 1 + item.size() > 78) {
        text += line + "\n";
        line = "       " + item;
      } else {
        line += " " + item;
      }
    }
    text += line + "\n";
  }
  text += "every command also accepts --metrics FILE (write "
          "syrwatch.metrics.v1 JSON)\n";
  std::fputs(text.c_str(), stderr);
}

void print_table(const std::string& title, const util::TextTable& table) {
  std::fputs(util::titled_block(title, table).c_str(), stdout);
}

void print_gaps(const std::string& title, const char* requests_header,
                const std::vector<analysis::CoverageGap>& gaps) {
  util::TextTable table{{"Proxy", "Gap start", "Gap end", requests_header}};
  for (const auto& gap : gaps)
    table.add_row({std::string(policy::proxy_name(gap.proxy_index)),
                   util::format_datetime(gap.start),
                   util::format_datetime(gap.end),
                   util::with_commas(gap.farm_requests)});
  print_table(title, table);
}

int usage_error(std::string_view command, const std::string& message) {
  std::fprintf(stderr, "syrwatchctl %.*s: %s\n",
               static_cast<int>(command.size()), command.data(),
               message.c_str());
  print_usage();
  return 2;
}

/// The values a "a|b|c" metavar allows; one entry for any other metavar.
std::vector<std::string_view> choices_of(std::string_view metavar) {
  std::vector<std::string_view> choices;
  for (std::size_t start = 0;;) {
    const std::size_t bar = metavar.find('|', start);
    choices.push_back(metavar.substr(start, bar - start));
    if (bar == std::string_view::npos) return choices;
    start = bar + 1;
  }
}

/// What the table says is wrong with the invocation, or "".
std::string table_check(const Command& command, const util::CliFlags& flags) {
  const auto& args = flags.positional();
  if (command.positionals == 0 && !args.empty())
    return "unexpected argument \"" + args.front() + "\"";
  if (args.size() != command.positionals)
    return "expected " + std::string(command.operands);
  for (const Flag& flag : command.flags) {
    const std::string name{flag.name};
    if (flag.required && !flags.has(name))
      return name + " " + std::string(flag.metavar) + " is required";
    const auto value = flags.get(name);
    const auto choices = choices_of(flag.metavar);
    if (!value || choices.size() < 2 ||
        std::find(choices.begin(), choices.end(), *value) != choices.end())
      continue;
    std::string allowed;  // "a, b, or c"
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i > 0) allowed += i + 1 == choices.size() ? ", or " : ", ";
      allowed += choices[i];
    }
    return name + " must be " + allowed + " (got \"" + std::string(*value) +
           "\")";
  }
  return "";
}

/// Process-wide cancellation token SIGINT/SIGTERM flip (via
/// util::install_stop_signals — sigaction without SA_RESTART, so a
/// coordinator blocked in poll() wakes immediately; forked shard workers
/// reinstall onto their own token). main arms --deadline on it.
util::CancelToken g_cancel;

/// --out sibling for the container when --format=both: leak.csv ->
/// leak.col, anything else gets .col appended.
std::string sibling_col_path(const std::string& out_path) {
  if (out_path.size() > 4 &&
      out_path.compare(out_path.size() - 4, 4, ".csv") == 0)
    return out_path.substr(0, out_path.size() - 4) + ".col";
  return out_path + ".col";
}

/// The --workers path of `generate`: forks the shard farm under the
/// supervising coordinator (src/shard), whose merged csv is byte-identical
/// to the single-process run while every shard survives. A dead worker is
/// restarted (--backoff-ms, --heartbeat-ms, drilled by --worker-chaos);
/// one that exhausts --restart-budget (default 3) is abandoned, and the
/// run completes with a [DEGRADED DATA] block and its coverage gaps. An
/// interrupt leaves every shard checkpointed and exits 0 with a hint.
int generate_sharded(const util::CliFlags& flags, MetricsOutput& metrics,
                     const workload::ScenarioConfig& config,
                     const std::string& out_path,
                     const std::string& checkpoint_dir,
                     std::size_t commit_interval, std::size_t workers) {
  shard::CoordinatorOptions options;
  options.config = config;
  options.directory = checkpoint_dir;
  options.out_path = out_path;
  options.workers = workers;
  options.resume = flags.has("--resume");
  options.commit_interval = commit_interval;
  options.restart_budget =
      static_cast<std::size_t>(flags.get_u64("--restart-budget", 3));
  options.heartbeat_ms = flags.get_u64("--heartbeat-ms", 0);
  options.restart_backoff_ms = flags.get_u64("--backoff-ms", 200);
  options.worker_chaos =
      std::string(flags.get("--worker-chaos").value_or("none"));
  // ^C, SIGTERM, or the deadline stop the whole farm gracefully: the
  // coordinator fans SIGTERM out to every worker, each shard flushes its
  // last complete batch, and the run resumes bit-identically later.
  util::install_stop_signals(g_cancel);
  options.cancel = &g_cancel;
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
    return 0;
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
    if (!coverage.gaps.empty())
      print_gaps("DEGRADED DATA — coverage gaps", "Farm reqs in gap",
                 coverage.gaps);
    if (coverage.truncated_tail)
      std::printf(
          "[DEGRADED DATA] torn spool tail recovered leniently in an "
          "abandoned shard\n");
  }
  return 0;
}

/// Simulates the deployment and writes the log in Blue Coat csv form
/// (atomically: temp + rename), the SYRCOL1 container (--format col), or
/// both (the container next to the csv, .col). --fault-profile injects
/// proxy outages, brownouts or flapping (fault::make_profile).
///
/// With --checkpoint-dir each batch lands in a crash-safe spool and a
/// durable manifest is committed every --checkpoint-interval batches
/// (default 8): SIGINT or --deadline flushes the last complete batch and
/// exits 0 with a resume hint, and --resume finishes a log bit-identical
/// to an uninterrupted one, at any --threads. --workers N shards the farm
/// across N supervised processes (see generate_sharded).
/// --storage-fault NAME[:N] routes every durable write through a seeded
/// FaultyVfs (DESIGN.md §4.13; a simulated power cut exits 9), and
/// --abort-after-batches K dies like a kill -9 once K batches are durable.
int cmd_generate(const util::CliFlags& flags, MetricsOutput& metrics) {
  const std::string out_path{*flags.get("--out")};
  const std::string format{flags.get("--format").value_or("csv")};
  const bool want_csv = format != "col";
  const bool want_col = format != "csv";
  const std::string col_path =
      format == "col" ? out_path : sibling_col_path(out_path);
  const std::string checkpoint_dir{
      flags.get("--checkpoint-dir").value_or("")};
  if (flags.has("--resume") && checkpoint_dir.empty())
    return usage_error("generate", "--resume requires --checkpoint-dir");

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
      return usage_error("generate", error.what());
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

  std::size_t commit_interval = 8;
  if (!checkpoint_dir.empty()) {
    commit_interval =
        static_cast<std::size_t>(flags.get_u64("--checkpoint-interval", 8));
    if (commit_interval == 0)
      return usage_error("generate", "--checkpoint-interval must be >= 1");
  }

  if (flags.get("--workers")) {
    const std::size_t workers =
        static_cast<std::size_t>(flags.get_u64("--workers", 2));
    if (workers == 0)
      return usage_error("generate", "--workers must be >= 1");
    if (checkpoint_dir.empty())
      return usage_error("generate",
                         "--workers requires --checkpoint-dir (each shard "
                         "checkpoints there)");
    if (format != "csv")
      return usage_error("generate",
                         "--workers writes csv only (the shard merge is "
                         "byte-level); drop --format " + format);
    if (flags.get("--abort-after-batches"))
      return usage_error("generate",
                         "--abort-after-batches is a single-process crash "
                         "hook; use --worker-chaos to kill real workers");
    return generate_sharded(flags, metrics, config, out_path, checkpoint_dir,
                            commit_interval, workers);
  }

  const util::CancelToken* cancel =
      flags.has(kDeadline.name) ? &g_cancel : nullptr;
  if (!checkpoint_dir.empty()) {
    // Graceful stop: first ^C flushes the last complete batch and exits
    // cleanly with a resume hint (a second ^C during the flush still
    // kills the process the hard way — the checkpoint stays consistent,
    // that is the whole point of the commit ordering).
    util::install_stop_signals(g_cancel);
    cancel = &g_cancel;
  }

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
    checkpoint.commit_interval = commit_interval;
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
    return 0;
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
  return 0;
}

/// Integrity-checks every artifact a run manifest lists (size + CRC32):
/// a single flipped byte in the committed spool, the farm state or a
/// recorded output shows. A sharded run's manifest recurses into every
/// per-worker checkpoint, naming the failing shard. Given a columnar
/// container instead, re-checks its footer, index and every page
/// checksum.
int cmd_verify(const util::CliFlags& flags, MetricsOutput& metrics) {
  const std::string& path = flags.positional().front();
  if (colfmt::file_looks_like_container(path)) {
    const std::uint64_t start = obs::monotonic_nanos();
    const auto report = colfmt::verify_file(path);
    metrics.add_phase("verify", seconds_since(start), report.rows);
    metrics.count("verify.pages_checked", report.pages_checked);
    metrics.count("verify.failures", report.bad_pages);
    std::printf("%s: columnar container, %s blocks, %s rows, %s pages\n",
                path.c_str(), util::with_commas(report.blocks).c_str(),
                util::with_commas(report.rows).c_str(),
                util::with_commas(report.pages_checked).c_str());
    if (!report.ok) {
      std::fprintf(stderr, "container verification FAILED: %s\n",
                   report.first_error.c_str());
      return 1;
    }
    std::printf("container verified: footer, index, and all page "
                "checksums intact\n");
    return 0;
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
  print_table("Artifact integrity", table);

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

  metrics.count("verify.artifacts_checked", checked);
  metrics.count("verify.failures", failures);
  if (failures > 0) {
    std::fprintf(stderr, "%zu of %zu artifacts failed verification%s%s\n",
                 failures, checked,
                 failing_shard.empty() ? "" : " — first failing shard: ",
                 failing_shard.c_str());
    return 1;
  }
  std::printf("all %zu artifacts verified\n", checked);
  return 0;
}

/// Converts between the csv log and the columnar container; the
/// direction is inferred from IN's bytes. csv -> col -> csv round-trips
/// byte-identically, and a csv row that does not parse is refused rather
/// than dropped.
int cmd_convert(const util::CliFlags& flags, MetricsOutput& metrics) {
  const std::string& in_path = flags.positional()[0];
  const std::string& out_path = flags.positional()[1];
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
  metrics.count("convert.rows", rows);
  std::printf("converted %s records (%s) into %s (%s bytes, crc32 %s)\n",
              util::with_commas(rows).c_str(), direction, out_path.c_str(),
              util::with_commas(info.bytes).c_str(),
              util::to_hex32(info.crc32).c_str());
  return 0;
}

/// The log commands' input: FILE opened by analysis::open_source as the
/// "load" phase, at --threads (default 1) and --format (default auto).
struct LogInput {
  analysis::OpenedSource loaded;
  std::size_t threads = 1;

  analysis::LogSource source() const { return loaded.source(); }
  std::uint64_t rows() const { return loaded.rows(); }
};

LogInput load_log(const util::CliFlags& flags, MetricsOutput& metrics,
                  bool lenient = false) {
  LogInput log;
  log.threads = static_cast<std::size_t>(flags.get_u64(kThreads.name, 1));
  const std::string format{flags.get("--format").value_or("auto")};
  const std::uint64_t start = obs::monotonic_nanos();
  try {
    log.loaded = analysis::open_source(flags.positional().front(),
                                       {.format = format,
                                        .lenient = lenient,
                                        .threads = log.threads,
                                        .obs = metrics.context()});
  } catch (const analysis::SourceOpenError& err) {
    // A strict open refused only for a torn tail: the typed code is what
    // lets us say that `inspect` (a lenient load) recovers the rest.
    if (err.code() != analysis::SourceOpenErrorCode::kTornTail) throw;
    throw std::runtime_error(std::string(err.what()) +
                             " — `syrwatchctl inspect` recovers the intact "
                             "prefix");
  }
  metrics.count("cli.rows_loaded", log.rows());
  metrics.add_phase("load", seconds_since(start), log.rows());
  return log;
}

/// --bin-hours (default 1) in seconds. A width past int64_t is refused;
/// a non-positive one is the analyzer's to refuse.
std::int64_t bin_hours_in_seconds(const util::CliFlags& flags) {
  constexpr std::int64_t kMaxHours =
      std::numeric_limits<std::int64_t>::max() / 3600;
  const std::int64_t hours = flags.get_i64(kBinHours.name, 1);
  if (hours > kMaxHours || hours < -kMaxHours)
    throw std::invalid_argument("flag --bin-hours is out of range");
  return 3600 * hours;
}

/// Damage-tolerant triage of an on-disk log: parse statistics (lines
/// recovered or skipped by reason, or the blocks and rows recovered from a
/// container) plus the per-proxy/per-day coverage table and gap windows.
int cmd_inspect(const util::CliFlags& flags, MetricsOutput& metrics) {
  const std::int64_t bin = bin_hours_in_seconds(flags);
  const LogInput log = load_log(flags, metrics, /*lenient=*/true);
  const analysis::OpenedSource& loaded = log.loaded;
  metrics.count("inspect.records_recovered", log.rows());
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
    metrics.count("inspect.lines_skipped",
                  loaded.read_stats().skipped_total());
    std::fputs(loaded.read_stats().summary().c_str(), stdout);
    damaged = loaded.read_stats().skipped_total() > 0;
  }
  if (log.rows() == 0) {
    std::printf("no usable records — nothing to inspect\n");
    return damaged ? 1 : 0;
  }

  // The stats of the other backend are zeroed, so passing both is safe.
  const analysis::CoverageReport coverage = metrics.analyze(log.rows(), [&] {
    return analysis::request_coverage(log.source(),
                                      {.bin = {bin},
                                       .min_farm_bin_requests = 25,
                                       .read_stats = &loaded.read_stats(),
                                       .recovery = &loaded.recovery()},
                                      log.threads);
  });
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
  print_table("Per-proxy daily coverage", days);

  if (coverage.truncated_tail) {
    std::printf(
        "WARNING: log ends mid-record — the trailing edge of the window is "
        "an artifact boundary (torn write?), not a traffic boundary\n");
  }
  if (!coverage.gaps.empty()) {
    print_gaps("Coverage gaps (farm active, proxy silent)", "Farm reqs",
               coverage.gaps);
  } else {
    std::printf("no coverage gaps at %lld-second bins\n",
                static_cast<long long>(bin));
  }
  return 0;
}

/// Table 3-style traffic breakdown.
int cmd_stats(const util::CliFlags& flags, MetricsOutput& metrics) {
  const LogInput log = load_log(flags, metrics);
  const auto stats = metrics.analyze(log.rows(), [&] {
    return analysis::traffic_stats(log.source(), log.threads);
  });
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
  print_table("Traffic breakdown — " + flags.positional().front() + " (" +
                  util::with_commas(stats.total) + " records)",
              table);
  return 0;
}

/// Top domains of one traffic class (Table 4/5 style).
int cmd_top(const util::CliFlags& flags, MetricsOutput& metrics) {
  analysis::TopDomainsOptions options{proxy::TrafficClass::kCensored, 10,
                                      std::nullopt};
  const std::string_view klass = flags.get("--class").value_or("censored");
  if (klass == "allowed") options.cls = proxy::TrafficClass::kAllowed;
  if (klass == "error") options.cls = proxy::TrafficClass::kError;
  options.k = flags.get_u64("--k", 10);

  const LogInput log = load_log(flags, metrics);
  const auto top = metrics.analyze(log.rows(), [&] {
    return analysis::top_domains(log.source(), options, log.threads);
  });
  util::TextTable table{{"#", "Domain", "# Requests", "%"}};
  for (std::size_t i = 0; i < top.size(); ++i) {
    table.add_row({std::to_string(i + 1), top[i].domain,
                   util::with_commas(top[i].count),
                   util::percent(top[i].share)});
  }
  print_table("Top " + std::string(proxy::to_string(options.cls)) + " domains",
              table);
  return 0;
}

/// The §5.4 iterative censored-string discovery.
int cmd_discover(const util::CliFlags& flags, MetricsOutput& metrics) {
  const LogInput log = load_log(flags, metrics);
  analysis::DiscoveryOptions options;
  options.min_count = flags.get_u64("--min-count", options.min_count);
  const auto result = metrics.analyze(log.rows(), [&] {
    return analysis::discover_censored_strings(log.source(), options,
                                               log.threads);
  });
  util::TextTable keywords{{"Keyword", "Censored", "Proxied"}};
  for (const auto& kw : result.keywords) {
    keywords.add_row({kw.text, util::with_commas(kw.censored),
                      util::with_commas(kw.proxied)});
  }
  print_table("Censored keywords", keywords);
  util::TextTable domains{{"Domain", "Censored", "Proxied"}};
  for (const auto& domain : result.domains) {
    domains.add_row({domain.text, util::with_commas(domain.censored),
                     util::with_commas(domain.proxied)});
  }
  print_table("Suspected domains", domains);
  std::printf("explained %s of %s censored requests\n",
              util::with_commas(result.censored_requests_explained).c_str(),
              util::with_commas(result.censored_requests_total).c_str());
  return 0;
}

/// User-based analysis (Fig. 4 style; needs hashed client ids).
int cmd_users(const util::CliFlags& flags, MetricsOutput& metrics) {
  const LogInput log = load_log(flags, metrics);
  const auto stats = metrics.analyze(log.rows(), [&] {
    return analysis::user_stats(log.source(), log.threads);
  });
  if (stats.total_users == 0) {
    std::printf("no attributable users (client hashes suppressed in this "
                "log slice; Duser covers July 22-23 only)\n");
    return 0;
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
  print_table("User analysis", table);
  return 0;
}

/// policy_redirect hosts (Table 7 style).
int cmd_redirects(const util::CliFlags& flags, MetricsOutput& metrics) {
  const LogInput log = load_log(flags, metrics);
  const auto hosts = metrics.analyze(log.rows(), [&] {
    return analysis::redirect_hosts(log.source(), {.k = 0}, log.threads);
  });
  util::TextTable table{{"Host", "# Redirects", "%"}};
  for (const auto& host : hosts) {
    table.add_row({host.host, util::with_commas(host.requests),
                   util::percent(host.share)});
  }
  print_table("policy_redirect hosts", table);
  return 0;
}

/// Per-window enforcement intensity for one keyword.
int cmd_weather(const util::CliFlags& flags, MetricsOutput& metrics) {
  const std::vector<std::string> keywords{std::string(*flags.get("--keyword"))};
  const std::int64_t bin = bin_hours_in_seconds(flags);
  const LogInput log = load_log(flags, metrics);
  const analysis::LogSource source = log.source();
  if (source.rows() == 0) {
    std::printf("empty log\n");
    return 0;
  }
  const auto bounds = source.time_bounds();
  const analysis::TimeRange range{bounds.first, bounds.last + 1};
  const auto reports = metrics.analyze(source.rows(), [&] {
    return analysis::keyword_weather(source, keywords, {range, {bin}},
                                     log.threads);
  });
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
  print_table("Censorship weather — \"" + keywords[0] + "\" (" +
                  std::to_string(report.active_bins()) + " active windows, " +
                  std::to_string(report.fully_enforced_bins()) +
                  " fully enforced)",
              table);
  return 0;
}

/// Online mode (DESIGN.md §4.12): tail a run's WAL spool — or any CSV
/// log being appended to — and print a rolling sketch report every
/// --interval seconds. Given a checkpoint directory the manifest doubles
/// as the stop signal: once the run leaves "in_progress" the watcher
/// drains whatever the final commit appended and exits (unless --follow
/// keeps it tailing, e.g. across a resume).
int cmd_watch(const util::CliFlags& flags, MetricsOutput& metrics) {
  const std::string& path = flags.positional().front();
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
  util::install_stop_signals(g_cancel);

  auto stream = std::make_unique<analysis::StreamSource>(spool_path);
  analysis::StreamAnalyzer analyzer{options, metrics.context()};

  // A finished run promotes its spool to its csv --out
  // (durable::finalize_output) and lists that output in its manifest.
  const auto promoted_spool = [&]() -> std::string {
    if (manifest_path.empty() || fs::exists(stream->tail().path(), ec))
      return "";
    try {
      const auto manifest = durable::RunManifest::load(manifest_path);
      for (const auto& artifact : manifest.artifacts) {
        const fs::path listed = fs::path{path} / artifact.path;
        const std::string output =
            fs::exists(listed, ec) ? listed.string() : artifact.path;
        if (artifact.role == "output" && fs::exists(output, ec) &&
            !colfmt::file_looks_like_container(output))
          return output;
      }
    } catch (const std::exception&) {
    }
    return "";
  };

  const std::uint64_t watch_start = obs::monotonic_nanos();
  std::uint64_t high_water = 0;
  bool finishing = flags.has("--once");
  while (true) {
    if (const std::string output = promoted_spool(); !output.empty()) {
      // Carry on in the output from where the spool left off.
      auto next = std::make_unique<analysis::StreamSource>(output);
      next->tail().resume_at(stream->tail().offset());
      stream = std::move(next);
      high_water = 0;
    }
    stream->poll();
    high_water = analysis::scan_increment(
        stream->source(), high_water,
        [&](const analysis::Record& r) { analyzer.ingest(r); });
    auto report = analyzer.snapshot();
    report.spool_offset = stream->tail().offset();
    report.spool_pending_bytes = stream->tail().pending_bytes();
    report.spool_skipped_lines = stream->tail().stats().skipped_total();
    report.spool_gaps = stream->tail().gaps();
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
  return 0;
}

/// The paper-order report (or just the headline overview with
/// --overview) straight from a log file. The Dsample/Duser/Ddenied views
/// are carved out of the file-backed Dfull as scan-layer masks, and the
/// GeoIP/relay/torrent lookups come from a fresh scenario environment
/// built at --seed (pass the log's generate seed so they match the
/// traffic).
int cmd_report(const util::CliFlags& flags, MetricsOutput& metrics) {
  const LogInput log = load_log(flags, metrics);
  const analysis::LogSource full = log.source();
  if (full.rows() == 0) {
    std::printf("empty log\n");
    return 0;
  }

  workload::ScenarioConfig config;
  config.seed = flags.get_u64(kSeed.name, config.seed);
  const std::uint64_t env_start = obs::monotonic_nanos();
  const workload::Environment environment{config};
  metrics.add_phase("environment", seconds_since(env_start), 0);

  const std::uint64_t derive_start = obs::monotonic_nanos();
  const analysis::DerivedSources derived =
      analysis::derive_sources(full, config.seed, log.threads);
  metrics.add_phase("derive", seconds_since(derive_start), full.rows());

  const core::ReportSources sources{derived.full,
                                    derived.sample,
                                    derived.user,
                                    derived.denied,
                                    &environment.geoip(),
                                    &environment.relays(),
                                    &environment.torrents(),
                                    log.threads,
                                    metrics.context()};
  const std::string report = metrics.analyze(full.rows(), [&] {
    return flags.has("--overview") ? core::render_overview(sources)
                                   : core::render_full_report(sources);
  });
  std::fputs(report.c_str(), stdout);
  return 0;
}

/// Runs a reduced study end to end with the observability layer attached
/// and prints where the time went: run phases, the per-stage wall-time
/// breakdown, and the pipeline event counters.
int cmd_profile(const util::CliFlags& flags, MetricsOutput& metrics) {
  workload::ScenarioConfig config;
  config.total_requests = flags.get_u64(kRequests.name, 200'000);
  config.seed = flags.get_u64(kSeed.name, config.seed);
  config.threads = flags.get_u64(kThreads.name, 0);
  if (const auto profile = flags.get(kFaultProfile.name))
    config.fault_profile = *profile;

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
  return 0;
}

/// A log command's flags: its own, then --threads and --format.
std::vector<Flag> log_flags(std::initializer_list<Flag> own) {
  std::vector<Flag> flags{own};
  flags.push_back(kThreads);
  flags.push_back(format_flag("auto|csv|col"));
  return flags;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> table{
      {"generate", "", 0,
       {{"--out", "FILE", true}, kRequests, kSeed, kThreads,
        format_flag("csv|col|both"), {"--no-leak-filter"}, kFaultProfile,
        {"--checkpoint-dir", "DIR"}, {"--resume"},
        {"--checkpoint-interval", "K"}, {"--abort-after-batches", "K"},
        kDeadline, {"--storage-fault", "SCHEDULE[:N]"}, {"--workers", "N"},
        {"--restart-budget", "K"}, {"--heartbeat-ms", "T"},
        {"--backoff-ms", "B"}, {"--worker-chaos", "NAME"}},
       cmd_generate},
      {"verify", "DIR|MANIFEST|CONTAINER", 1, {}, cmd_verify},
      {"convert", "IN OUT", 2, {{"--block-rows", "N"}}, cmd_convert},
      {"inspect", "FILE", 1, log_flags({kBinHours}), cmd_inspect},
      {"report", "FILE", 1, log_flags({{"--overview"}, kSeed}),
       cmd_report},
      {"stats", "FILE", 1, log_flags({}), cmd_stats},
      {"top", "FILE", 1,
       log_flags({{"--class", "censored|allowed|error"}, {"--k", "N"}}),
       cmd_top},
      {"discover", "FILE", 1, log_flags({{"--min-count", "N"}}),
       cmd_discover},
      {"users", "FILE", 1, log_flags({}), cmd_users},
      {"redirects", "FILE", 1, log_flags({}), cmd_redirects},
      {"weather", "FILE", 1,
       log_flags({{"--keyword", "WORD", true}, kBinHours}), cmd_weather},
      {"watch", "DIR|SPOOL", 1,
       {{"--interval", "S"}, {"--bin", "S"}, {"--window-bins", "N"},
        {"--top", "K"}, {"--json", "FILE"}, {"--once"}, {"--follow"},
        kDeadline},
       cmd_watch},
      {"profile", "", 0, {kRequests, kSeed, kThreads, kFaultProfile},
       cmd_profile},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string_view name{argv[1]};
  const Command* command = nullptr;
  for (const Command& candidate : commands())
    if (candidate.name == name) command = &candidate;
  if (command == nullptr) {
    std::fprintf(stderr, "syrwatchctl: unknown subcommand \"%s\"\n", argv[1]);
    print_usage();
    return 2;
  }

  util::CliFlags flags;
  flags.value_flag(std::string(kMetrics.name));
  for (const Flag& flag : command->flags) {
    if (flag.metavar.empty())
      flags.bool_flag(std::string(flag.name));
    else
      flags.value_flag(std::string(flag.name));
  }
  if (!flags.parse(argc, argv)) return usage_error(name, flags.error());
  if (const std::string problem = table_check(*command, flags);
      !problem.empty())
    return usage_error(name, problem);

  try {
    if (flags.has(kDeadline.name))
      g_cancel.set_deadline_after(flags.get_double(kDeadline.name, 0.0));
    MetricsOutput metrics;
    int code = command->run(flags, metrics);
    const auto metrics_path = flags.get(kMetrics.name);
    if (code != 2 && metrics_path &&
        !metrics.write(std::string(*metrics_path), name) && code == 0)
      code = 1;
    return code;
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
}
