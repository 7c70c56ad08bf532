#pragma once

#include <array>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace bench_e2e {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Every per-layer metric the traced run reports, in print order. Layer
/// names are the repo's modules (src/<module>); `cli` and `stage` are the
/// --metrics documents of the untraced ops.
inline constexpr std::array<MetricSpec, 46> kLayerMetrics{{
    {"workload.scenario_build_s", "s"},
    {"workload.generate_route_rps", "requests/s"},
    {"proxy.process_s", "s"},
    {"proxy.cache_hit_ratio", "ratio"},
    {"proxy.to_csv_mb_per_s", "MB/s"},
    {"policy.evaluate_rps", "requests/s"},
    {"durable.write_state_s", "s"},
    {"durable.append_spool_s", "s"},
    {"durable.commits", "count"},
    {"durable.write_amplification", "ratio"},
    {"durable.verify_s", "s"},
    {"durable_stream.write_s", "s"},
    {"durable_stream.read_s", "s"},
    {"shard.merge_s", "s"},
    {"shard.duplicate_generation_share", "ratio"},
    {"colfmt.encode_rps", "records/s"},
    {"colfmt.open_s", "s"},
    {"colfmt.decode_mb_per_s", "MB/s"},
    {"colfmt.verify_mb_per_s", "MB/s"},
    {"colfmt.bytes_per_record", "B"},
    {"analysis.csv_open_s", "s"},
    {"analysis.col_open_s", "s"},
    {"analysis.scan_rps.col", "records/s"},
    {"analysis.scan_rps.csv", "records/s"},
    {"analysis.derive_s", "s"},
    {"analysis.string_discovery_s", "s"},
    {"analysis.top_domains_s", "s"},
    {"analysis.osn_s", "s"},
    {"analysis.traffic_stats_s", "s"},
    {"analysis.sampling_audit_s", "s"},
    {"analysis.countries_s", "s"},
    {"analysis.ports_s", "s"},
    {"analysis.tor_s", "s"},
    {"analysis.bittorrent_s", "s"},
    {"analysis.https_s", "s"},
    {"analysis.google_cache_s", "s"},
    {"analysis.spool_tail_rps", "records/s"},
    {"analysis.stream_ingest_rps", "records/s"},
    {"analysis.stream_snapshot_s", "s"},
    {"core.render_full_report_s", "s"},
    {"cli.load_s", "s"},
    {"cli.derive_s", "s"},
    {"cli.analyze_s", "s"},
    {"stage.generate_shard_s", "s"},
    {"stage.process_proxy_batch_s", "s"},
    {"stage.merge_s", "s"},
}};

/// trace_overhead_s is reported beside the layer metrics, per workload:
/// the traced in-process steps of a workload minus its untraced wall_s.
inline constexpr MetricSpec kTraceOverhead{"trace_overhead_s", "s"};

struct LayerReport {
  std::size_t attempted = 0;  ///< traced workload groups and probes run
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  /// Traced seconds of each workload's in-process steps.
  std::map<std::string, double> workload_seconds;
  std::string self_time_table;
};

/// The traced run. Runs every workload's steps in-process through the
/// public functions the CLI calls, with a span around each call, then
/// single-layer probes; checks each result against the corpus; writes
/// the spans to `trace_path` as Chrome trace-event JSON. `untraced` holds
/// one checked untraced op per workload, whose --metrics documents supply
/// the registry-backed metrics. `report_digest` is the reference report.
LayerReport run_layers(const Settings& settings, const Corpus& corpus,
                       const std::map<std::string, OpResult>& untraced,
                       const syrwatch::util::FileDigest& report_digest,
                       const std::string& trace_path);

}  // namespace bench_e2e
