#include "obs/export.h"

#include <cstdio>

#include "util/json.h"
#include "util/strings.h"
#include "util/table.h"

namespace syrwatch::obs {

namespace {

double seconds_of(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

std::string millis_text(std::uint64_t nanos) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f",
                static_cast<double>(nanos) * 1e-6);
  return buffer;
}

std::string seconds_text(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", seconds);
  return buffer;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot, std::string_view command,
                    std::span<const PhaseTiming> phases,
                    double total_seconds) {
  util::json::Writer out{util::json::Writer::Layout::kPretty, 9};
  out.begin_object();
  out.key("schema").value("syrwatch.metrics.v1");
  out.key("command").value(command);

  out.key("counters").begin_object();
  for (const auto& counter : snapshot.counters)
    out.key(counter.name).value(counter.value);
  out.end_object();

  out.key("gauges").begin_object();
  for (const auto& gauge : snapshot.gauges)
    out.key(gauge.name).value(gauge.value);
  out.end_object();

  out.key("stages").begin_object();
  for (const auto& stage : snapshot.stages) {
    out.key(stage.name).begin_object();
    out.key("count").value(stage.count);
    out.key("total_seconds").value(seconds_of(stage.total_nanos));
    out.key("min_seconds").value(seconds_of(stage.min_nanos));
    out.key("max_seconds").value(seconds_of(stage.max_nanos));
    out.end_object();
  }
  out.end_object();

  out.key("phases").begin_array();
  for (const PhaseTiming& phase : phases) {
    out.begin_object();
    out.key("name").value(phase.name);
    out.key("seconds").value(phase.seconds);
    out.key("items").value(phase.items);
    out.end_object();
  }
  out.end_array();

  out.key("total_seconds").value(total_seconds);
  out.end_object();
  return out.finish();
}

std::string render_text(const MetricsSnapshot& snapshot,
                        std::span<const PhaseTiming> phases,
                        double total_seconds) {
  std::string out;

  if (!phases.empty()) {
    util::TextTable table{{"Phase", "Wall (s)", "Share", "Items"}};
    for (const PhaseTiming& phase : phases) {
      table.add_row({phase.name, seconds_text(phase.seconds),
                     total_seconds > 0.0
                         ? util::percent(phase.seconds / total_seconds)
                         : "-",
                     util::with_commas(phase.items)});
    }
    table.add_row({"total", seconds_text(total_seconds), "-", "-"});
    out += util::titled_block("Run phases", table);
  }

  if (!snapshot.stages.empty()) {
    util::TextTable table{
        {"Stage", "Calls", "Total (ms)", "Mean (ms)", "Min (ms)", "Max (ms)"}};
    for (const auto& stage : snapshot.stages) {
      const std::uint64_t mean =
          stage.count == 0 ? 0 : stage.total_nanos / stage.count;
      table.add_row({stage.name, util::with_commas(stage.count),
                     millis_text(stage.total_nanos), millis_text(mean),
                     millis_text(stage.min_nanos),
                     millis_text(stage.max_nanos)});
    }
    out += util::titled_block("Stage wall-time breakdown", table);
  }

  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    util::TextTable table{{"Metric", "Value"}};
    for (const auto& counter : snapshot.counters)
      table.add_row({counter.name, util::with_commas(counter.value)});
    for (const auto& gauge : snapshot.gauges) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.4g", gauge.value);
      table.add_row({gauge.name, buffer});
    }
    out += util::titled_block("Counters", table);
  }

  return out;
}

}  // namespace syrwatch::obs
