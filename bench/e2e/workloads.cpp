#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "colfmt/container.h"
#include "policy/syria.h"
#include "process.h"
#include "shard/plan.h"
#include "util/rng.h"

namespace bench_e2e {

namespace fs = std::filesystem;
using syrwatch::util::FileDigest;
using syrwatch::util::crc32_file;
using syrwatch::util::to_hex32;

namespace {

std::string describe(const FileDigest& digest) {
  return std::to_string(digest.bytes) + " bytes, crc32 " +
         to_hex32(digest.crc32);
}

void fail(OpResult& result, std::string why) {
  if (result.failure.empty()) result.failure = std::move(why);
}

void expect(OpResult& result, bool ok, const std::string& what) {
  if (!ok) fail(result, what);
}

void expect_digest(OpResult& result, const std::string& what,
                   const FileDigest& got, const FileDigest& want) {
  expect(result, same(got, want),
         what + " differs from the corpus (" + describe(got) + " vs " +
             describe(want) + ")");
}

/// A step still running after this long is killed and fails its op; the
/// slowest op at the default scale takes about 3 s.
constexpr double kStepTimeoutSeconds = 120.0;

/// Sum of the sizes of the regular files under `path` (or of `path`).
std::uint64_t disk_usage(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path);
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

double counter(const Json& metrics, std::string_view name) {
  const Json* counters = metrics.find("counters");
  return counters == nullptr ? -1.0 : counters->number_at(name, -1.0);
}

}  // namespace

bool is_workload(std::string_view name) {
  return std::find(kWorkloads.begin(), kWorkloads.end(), name) !=
         kWorkloads.end();
}

double probe_host_ms(std::size_t threads) {
  // Sorting and hashing touch the same mix of branches, caches and memory
  // bandwidth as the ops; about 40 ms per thread on the reference host.
  // Plain std::thread, so no change to the program can move the probe.
  const auto task = [](std::uint64_t seed) {
    std::vector<std::uint64_t> values(std::size_t{1} << 18);
    std::uint64_t x = seed;
    for (std::uint64_t& value : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      value = x;
    }
    std::sort(values.begin(), values.end());
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    for (std::size_t i = 0; i < 50'000; ++i)
      ++counts[values[(i * 2654435761u) % values.size()] & 0xFFFFF];
    return values[values.size() / 2] ^ counts.size();
  };
  // CPU time, not wall time: a thread that starts late or waits for a
  // core says nothing about how fast the core runs once it has one.
  const auto thread_cpu_ms = [] {
    timespec now{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) * 1e-6;
  };
  std::vector<std::uint64_t> results(threads);
  std::vector<double> cpu_ms(threads);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < threads; ++i)
    workers.emplace_back([&, i] {
      const double start = thread_cpu_ms();
      results[i] = task(i + 1);
      cpu_ms[i] = thread_cpu_ms() - start;
    });
  for (std::thread& worker : workers) worker.join();
  // Using the results keeps the work from being optimized away.
  std::uint64_t checksum = 0;
  for (const std::uint64_t result : results) checksum += result;
  if (checksum == 0) throw std::logic_error("host probe: zero checksum");
  double total_ms = 0.0;
  for (const double ms : cpu_ms) total_ms += ms;
  return total_ms;
}

std::uint64_t scenario_seed(std::uint64_t seed, std::size_t workers) {
  const auto partition = [workers](std::uint64_t candidate) {
    std::vector<std::uint64_t> masks;
    for (std::size_t w = 0; w < workers; ++w)
      masks.push_back(syrwatch::shard::proxy_mask_for(
          candidate, w, workers, syrwatch::policy::kProxyCount));
    std::sort(masks.begin(), masks.end());
    return masks;
  };
  const std::vector<std::uint64_t> reference = partition(2011);
  if (partition(seed) == reference) return seed;
  // Search from a hash of the seed, so distinct seeds stay distinct
  // corpora. About one value in 700 matches; the bound only guards a bug.
  // Kept below 2^31: run manifests store the seed as a signed 64-bit
  // integer, and `verify`/`--resume` reject anything from 2^63 up.
  const std::uint64_t start = syrwatch::util::mix64(seed) >> 33;
  for (std::uint64_t i = 0; i < 1'000'000; ++i)
    if (partition(start + i) == reference) return start + i;
  return seed;
}

bool same(const FileDigest& a, const FileDigest& b) {
  return a.bytes == b.bytes && a.crc32 == b.crc32;
}

Corpus make_corpus(const Settings& settings, std::size_t setups,
                   std::vector<SetupTiming>& timings) {
  Corpus corpus;
  const std::string corpus_dir = settings.work + "/corpus";
  fs::remove_all(corpus_dir);
  double probe_ms = probe_host_ms(settings.threads);
  for (std::size_t i = 0; i < setups; ++i) {
    const std::string dir = settings.work + "/setup-" + std::to_string(i);
    const std::string err = dir + ".stderr";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string csv = dir + "/corpus.csv";
    const ProcessResult run = run_process(
        {settings.ctl, "generate", "--out", csv, "--requests",
         std::to_string(settings.requests), "--seed",
         std::to_string(settings.seed), "--format", "both", "--threads",
         std::to_string(settings.threads)},
        "", err, kStepTimeoutSeconds);
    if (!run.ok())
      throw std::runtime_error("set-up generate exited " +
                               std::to_string(run.exit_code) + ": " +
                               file_tail(err));
    // The probes on either side of the set-up bracket the host speed it
    // ran at.
    const double probe_after_ms = probe_host_ms(settings.threads);
    timings.push_back({run.wall_s, (probe_ms + probe_after_ms) / 2.0});
    probe_ms = probe_after_ms;
    const FileDigest csv_digest = crc32_file(csv);
    const FileDigest col_digest = crc32_file(dir + "/corpus.col");
    if (i == 0) {
      corpus.csv_digest = csv_digest;
      corpus.col_digest = col_digest;
      fs::rename(dir, corpus_dir);
    } else {
      if (!same(csv_digest, corpus.csv_digest) ||
          !same(col_digest, corpus.col_digest))
        throw std::runtime_error("set-up " + std::to_string(i) +
                                 " is not byte-identical to set-up 0");
      fs::remove_all(dir);
    }
    fs::remove(err);
  }
  corpus.csv = corpus_dir + "/corpus.csv";
  corpus.col = corpus_dir + "/corpus.col";
  corpus.records = syrwatch::colfmt::Reader::open(corpus.col).rows();
  return corpus;
}

WorkloadRunner::WorkloadRunner(const Settings& settings, const Corpus& corpus)
    : settings_(settings),
      corpus_(corpus),
      op_dir_(settings.work + "/op"),
      meta_dir_(settings.work + "/op-meta") {}

void WorkloadRunner::prepare(std::string_view workload) {
  if (workload != "report-col" && workload != "report-csv") return;
  if (reference_.count(workload) != 0) return;
  // The reference is the same report rendered from the other format: the
  // two backends must agree byte for byte.
  const std::string other =
      workload == "report-col" ? corpus_.csv : corpus_.col;
  fs::create_directories(meta_dir_);
  const std::string out = meta_dir_ + "/reference.txt";
  const std::string err = meta_dir_ + "/reference.stderr";
  const ProcessResult run = run_process(
      {settings_.ctl, "report", other, "--threads",
       std::to_string(settings_.threads), "--seed",
       std::to_string(settings_.seed)},
      out, err, kStepTimeoutSeconds);
  if (!run.ok())
    throw std::runtime_error("reference report exited " +
                             std::to_string(run.exit_code) + ": " +
                             file_tail(err));
  reference_.emplace(std::string(workload), crc32_file(out));
}

const FileDigest& WorkloadRunner::report_digest() const {
  if (reference_.empty())
    throw std::logic_error("report_digest: no report workload prepared");
  return reference_.begin()->second;
}

OpResult WorkloadRunner::run_op(std::string_view workload,
                                const std::string& input) {
  OpResult result;
  try {
    fs::remove_all(op_dir_);
    fs::create_directories(op_dir_);
    fs::create_directories(meta_dir_);
    result.probe_ms = probe_host_ms(settings_.threads);
    if (workload == "generate")
      generate_op(result);
    else if (workload == "report-col" || workload == "report-csv")
      report_op(result, workload, input);
    else if (workload == "durable-stream")
      durable_stream_op(result);
    else if (workload == "sharded")
      sharded_op(result);
    else
      fail(result, "unknown workload " + std::string(workload));
  } catch (const std::exception& error) {
    fail(result, error.what());
  }
  std::error_code ec;
  fs::remove_all(op_dir_, ec);
  result.ok = result.failure.empty();
  return result;
}

/// Runs `syrwatchctl ARGS --metrics FILE` as one timed step of an op and
/// keeps its metrics document. False (with the failure recorded) when
/// the step did not exit 0.
bool WorkloadRunner::step(OpResult& result, const std::string& name,
                          std::vector<std::string> args,
                          const std::string& stdout_path) {
  const std::string metrics = meta_dir_ + "/" + name + ".json";
  const std::string err = meta_dir_ + "/" + name + ".stderr";
  args.insert(args.begin(), settings_.ctl);
  args.push_back("--metrics");
  args.push_back(metrics);
  const ProcessResult run =
      run_process(args, stdout_path, err, kStepTimeoutSeconds);
  result.wall_s += run.wall_s;
  result.cpu_s += run.cpu_s;
  result.peak_rss_mb = std::max(result.peak_rss_mb, run.peak_rss_mb);
  if (!run.ok()) {
    fail(result, name + (run.timed_out ? " timed out"
                                       : " exited " +
                                             std::to_string(run.exit_code)) +
                     ": " + file_tail(err));
    return false;
  }
  result.metrics[name] = load_json(metrics);
  return true;
}

void WorkloadRunner::generate_op(OpResult& result) {
  const std::string csv = op_dir_ + "/log.csv";
  if (!step(result, "generate",
            {"generate", "--out", csv, "--requests",
             std::to_string(settings_.requests), "--seed",
             std::to_string(settings_.seed), "--threads",
             std::to_string(settings_.threads)}))
    return;
  const FileDigest digest = crc32_file(csv);
  expect_digest(result, "generated csv", digest, corpus_.csv_digest);
  result.disk_bytes = static_cast<double>(digest.bytes);
}

void WorkloadRunner::report_op(OpResult& result, std::string_view workload,
                               const std::string& input) {
  const std::string path = !input.empty()           ? input
                           : workload == "report-col" ? corpus_.col
                                                      : corpus_.csv;
  const std::string out = meta_dir_ + "/report.txt";
  if (!step(result, "report",
            {"report", path, "--threads", std::to_string(settings_.threads),
             "--seed", std::to_string(settings_.seed)},
            out))
    return;
  const FileDigest digest = crc32_file(out);
  const auto reference = reference_.find(workload);
  if (reference == reference_.end())
    throw std::logic_error("report op before prepare()");
  expect(result, same(digest, reference->second),
         "report bytes differ from the other format's report (" +
             describe(digest) + " vs " + describe(reference->second) + ")");
  result.disk_bytes = static_cast<double>(disk_usage(path));
}

void WorkloadRunner::durable_stream_op(OpResult& result) {
  const std::string ckpt = op_dir_ + "/ckpt";
  const std::string csv = op_dir_ + "/log.csv";
  if (!step(result, "generate",
            {"generate", "--out", csv, "--requests",
             std::to_string(settings_.requests), "--seed",
             std::to_string(settings_.seed), "--threads",
             std::to_string(settings_.threads), "--format", "both",
             "--checkpoint-dir", ckpt, "--checkpoint-interval", "1"}))
    return;
  const double write_s = result.wall_s;
  const FileDigest csv_digest = crc32_file(csv);
  expect_digest(result, "durable csv", csv_digest, corpus_.csv_digest);
  expect_digest(result, "durable col", crc32_file(op_dir_ + "/log.col"),
                corpus_.col_digest);
  result.disk_bytes = static_cast<double>(disk_usage(op_dir_));
  // Commits alternate between two farm-state slots; either holds one
  // commit's snapshot.
  std::uint64_t state_bytes = 0;
  for (const char* slot : {"/farm_state.bin", "/farm_state.alt.bin"})
    if (fs::exists(ckpt + slot))
      state_bytes = std::max<std::uint64_t>(state_bytes,
                                            fs::file_size(ckpt + slot));
  result.extra["state_bytes"] = static_cast<double>(state_bytes);
  result.extra["log_bytes"] = static_cast<double>(csv_digest.bytes);

  if (!step(result, "verify", {"verify", ckpt})) return;
  const std::string watch_json = meta_dir_ + "/stream.json";
  if (!step(result, "watch", {"watch", csv, "--once", "--json", watch_json}))
    return;
  result.extra["write_s"] = write_s;
  result.extra["read_s"] = result.wall_s - write_s;
  const double records = load_json(watch_json).number_at("records", -1.0);
  expect(result, records == static_cast<double>(corpus_.records),
         "watch saw " + std::to_string(records) + " records, corpus has " +
             std::to_string(corpus_.records));
}

void WorkloadRunner::sharded_op(OpResult& result) {
  const std::string csv = op_dir_ + "/log.csv";
  if (!step(result, "generate",
            {"generate", "--out", csv, "--requests",
             std::to_string(settings_.requests), "--seed",
             std::to_string(settings_.seed), "--workers",
             std::to_string(settings_.threads), "--threads", "1",
             "--checkpoint-dir", op_dir_ + "/ckpt"}))
    return;
  expect_digest(result, "merged csv", crc32_file(csv), corpus_.csv_digest);
  const Json& metrics = result.metrics.at("generate");
  expect(result, counter(metrics, "shard.restarts") == 0.0,
         "sharded run restarted a worker");
  expect(result, counter(metrics, "shard.shards_abandoned") == 0.0,
         "sharded run abandoned a shard");
  result.disk_bytes = static_cast<double>(disk_usage(op_dir_));
}

}  // namespace bench_e2e
