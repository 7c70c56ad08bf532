#pragma once

#include <span>
#include <string>

#include "obs/metrics.h"

namespace syrwatch::obs {

/// One coarse run phase (e.g. Study's simulate / build_datasets) with its
/// wall time and the number of items it handled. Phases are the top level
/// of the metrics JSON; stages are the fine-grained breakdown beneath.
struct PhaseTiming {
  std::string name;
  double seconds = 0.0;
  std::uint64_t items = 0;
};

/// Renders the `syrwatch.metrics.v1` JSON document: "schema", "command",
/// "counters" and "gauges" (name: value), "stages" (name: {"count",
/// "total_seconds", "min_seconds", "max_seconds"}), "phases" ([{"name",
/// "seconds", "items"}]) and "total_seconds", the caller-measured wall
/// time of the whole run, which the phases should cover
/// (tools/ci-metrics-smoke.sh checks that they sum to about it). Keys come
/// in sorted order; tests/test_json.cpp pins the layout byte for byte.
std::string to_json(const MetricsSnapshot& snapshot, std::string_view command,
                    std::span<const PhaseTiming> phases,
                    double total_seconds);

/// Renders the snapshot in the repo's `util::table` text format: a phase
/// table (when any), a stage wall-time breakdown, and a counter/gauge
/// table — the body of `syrwatchctl profile` and the bench metric blocks.
std::string render_text(const MetricsSnapshot& snapshot,
                        std::span<const PhaseTiming> phases,
                        double total_seconds);

}  // namespace syrwatch::obs
