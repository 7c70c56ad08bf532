#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "json.h"
#include "util/checksum.h"

namespace bench_e2e {

/// The five workloads, in the order a full run measures them.
inline constexpr std::array<std::string_view, 5> kWorkloads{
    "generate", "report-col", "report-csv", "durable-stream", "sharded"};

bool is_workload(std::string_view name);

/// The scenario seed the harness generates with for `--seed S`: S itself
/// when its proxy partition across `workers` shard workers is the one
/// seed 2011 gives, else the first value from mix64(S) >> 33 up with
/// that partition. What a sharded run costs depends on which proxies
/// share a worker, so fixing the partition keeps `sharded` the same
/// workload at every seed; only the traffic itself changes.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t workers);

/// CPU milliseconds, summed over `threads` threads, that a fixed
/// sort-and-hash task takes on each of them at once: a probe of how fast
/// this host runs right now, independent of the program under test.
double probe_host_ms(std::size_t threads);

/// The probe time of the reference host (this repository's 4-vCPU VM
/// when quiet). Timings are reported scaled to it: the VM's cores are
/// shared with other tenants, and its speed drifts by 10-40% over
/// minutes, which the probes taken on either side of each timing track.
inline constexpr double kReferenceProbeMs = 160.0;

/// `seconds` as the reference host would have taken, given the probe time
/// measured around it.
inline double host_adjusted(double seconds, double probe_ms) {
  return seconds * kReferenceProbeMs / probe_ms;
}

/// How every op runs: the program under test, the harness's scratch
/// directory, and the corpus scale.
struct Settings {
  std::string ctl;   ///< syrwatchctl executable
  std::string work;  ///< scratch directory, owned by the harness
  std::uint64_t seed = 2011;
  std::uint64_t requests = 200'000;
  /// Threads (or worker processes) one generating process may use.
  std::size_t threads = 4;
};

/// The seed's log in both formats: the oracle every check compares with.
struct Corpus {
  std::string csv;
  std::string col;
  syrwatch::util::FileDigest csv_digest;
  syrwatch::util::FileDigest col_digest;
  std::uint64_t records = 0;
};

bool same(const syrwatch::util::FileDigest& a,
          const syrwatch::util::FileDigest& b);

/// One set-up's wall time and the mean of the host probes taken just
/// before and just after it.
struct SetupTiming {
  double wall_s = 0.0;
  double probe_ms = 0.0;
};

/// Runs the set-up `setups` times — each a fresh, timed `generate
/// --format both` — checks that every copy is byte-identical, and keeps
/// one. `timings` receives one entry per set-up. Throws on failure.
Corpus make_corpus(const Settings& settings, std::size_t setups,
                   std::vector<SetupTiming>& timings);

/// One op: a workload's command(s), run once, timed and checked.
struct OpResult {
  bool ok = false;
  std::string failure;  ///< first failed exit or check when !ok
  double probe_ms = 0.0;  ///< host probe taken just before the op
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Bytes of the log files on disk the op wrote or read.
  double disk_bytes = 0.0;
  /// durable-stream only: write_s and read_s (its two halves), and the
  /// farm-state and log sizes behind durable.write_amplification.
  std::map<std::string, double> extra;
  /// Each step's syrwatch.metrics.v1 document, keyed by subcommand.
  std::map<std::string, Json> metrics;
};

class WorkloadRunner {
 public:
  WorkloadRunner(const Settings& settings, const Corpus& corpus);

  /// Untimed work an op's checks need beyond the corpus: report-col and
  /// report-csv compare their output with the report of the *other*
  /// format, rendered here once.
  void prepare(std::string_view workload);

  /// Runs one op. `input` replaces the corpus file a report workload
  /// reads (the smoke test's corrupted copy). A failed exit or check
  /// returns !ok; it never throws for one.
  OpResult run_op(std::string_view workload, const std::string& input = "");

  /// The reference report's digest; requires a prepared report workload.
  const syrwatch::util::FileDigest& report_digest() const;

 private:
  bool step(OpResult& result, const std::string& name,
            std::vector<std::string> args, const std::string& stdout_path = "");
  void generate_op(OpResult& result);
  void report_op(OpResult& result, std::string_view workload,
                 const std::string& input);
  void durable_stream_op(OpResult& result);
  void sharded_op(OpResult& result);

  Settings settings_;
  Corpus corpus_;
  std::string op_dir_;    ///< artifacts of the op in flight
  std::string meta_dir_;  ///< its stdout, stderr and --metrics files
  std::map<std::string, syrwatch::util::FileDigest, std::less<>> reference_;
};

}  // namespace bench_e2e
