// Parallel study pipeline: wall-clock scaling of the sharded
// generate→route→process→merge pipeline and the analysis fan-out across
// thread counts, plus a determinism cross-check (the thread-count
// invariance contract of DESIGN.md §4.5). Not a paper experiment — this
// bench tracks the scaling refactor every future growth PR builds on.

#include <filesystem>
#include <string>
#include <string_view>

#include "bench_common.h"
#include "core/report.h"
#include "durable/checkpoint.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "policy/rule.h"
#include "proxy/log_io.h"
#include "util/atomic_io.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

workload::ScenarioConfig scaling_config(std::size_t threads) {
  auto config = default_config();
  config.total_requests = 600'000;
  config.threads = threads;
  return config;
}

std::uint64_t log_fingerprint(const workload::ScenarioConfig& config) {
  workload::SyriaScenario scenario{config};
  std::uint64_t hash = 0;
  std::uint64_t count = 0;
  scenario.run([&](const proxy::LogRecord& record) {
    ++count;
    hash = util::mix64(hash ^ static_cast<std::uint64_t>(record.time) ^
                       record.user_hash ^ record.url.host.size() ^
                       static_cast<std::uint64_t>(record.exception));
  });
  return util::mix64(hash ^ count);
}

void print_reproduction() {
  print_banner("Parallel pipeline — determinism across thread counts",
               "identical seed => identical tables (DESIGN.md §4.5), now "
               "additionally invariant to ScenarioConfig::threads");
  const std::size_t hw = util::resolve_threads(0);
  TextTable table{{"Threads", "Log fingerprint", "Matches threads=1"}};
  const std::uint64_t reference = log_fingerprint(scaling_config(1));
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(reference));
  table.add_row({"1", buffer, "-"});
  for (const std::size_t threads : {std::size_t{4}, hw}) {
    const std::uint64_t fingerprint = log_fingerprint(scaling_config(threads));
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    table.add_row({std::to_string(threads), buffer,
                   fingerprint == reference ? "yes" : "NO"});
  }
  print_block("Determinism cross-check (600k requests)", table);
  std::printf("hardware threads on this machine: %zu\n\n", hw);

  // Pipeline event counters from an instrumented study — the registry
  // rides along with the cached study, so this costs one snapshot.
  core::Study& study = study_for(scaling_config(hw));
  const auto snapshot = registry_for(study).snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& entry : snapshot.counters) {
      if (entry.name == name) return entry.value;
    }
    return 0;
  };
  const std::uint64_t hits = counter("proxy.cache.hit");
  const std::uint64_t misses = counter("proxy.cache.miss");
  TextTable events{{"Pipeline event", "Count"}};
  events.add_row({"requests processed",
                  with_commas(counter("proxy.requests"))});
  events.add_row({"cache hits", with_commas(hits)});
  events.add_row({"cache misses", with_commas(misses)});
  events.add_row({"cache hit rate",
                  percent(hits + misses == 0
                              ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses))});
  events.add_row({"affinity-routed requests",
                  with_commas(counter("farm.route.affinity"))});
  events.add_row({"failover diversions",
                  with_commas(counter("farm.route.failover"))});
  for (const std::string_view kind : policy::kRuleKindNames) {
    events.add_row({"rule hits: " + std::string(kind),
                    with_commas(counter("policy.rule_hit." +
                                        std::string(kind)))});
  }
  print_block("Instrumented pipeline counters (600k-request study)", events);
}

// End-to-end study (generate + derive datasets) at a given thread count.
void BM_StudyPipeline(benchmark::State& state) {
  const auto config = scaling_config(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::Study study{config};
    study.run();
    benchmark::DoNotOptimize(study.datasets().full.rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_requests));
}
BENCHMARK(BM_StudyPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Same pipeline with a metrics registry attached — compare against
// BM_StudyPipeline at the same Arg for the observability overhead (the
// obs-layer budget is <2%; counters are relaxed atomics, timers are
// per-shard, so the delta should sit in the noise).
void BM_StudyPipelineMetrics(benchmark::State& state) {
  const auto config = scaling_config(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    obs::MetricsRegistry registry;
    obs::Context context{&registry};
    core::Study study{config};
    study.set_obs(&context);
    study.run();
    benchmark::DoNotOptimize(study.datasets().full.rows());
    benchmark::DoNotOptimize(registry.snapshot().counters.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_requests));
}
BENCHMARK(BM_StudyPipelineMetrics)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Checkpoint overhead, measured at the operation the durability layer
// protects: a long `generate` that writes its log to disk. The baseline
// streams every record through to_csv into one atomic file; the
// checkpointed run appends the same records (serialized once) to the
// spool, commits farm state + manifest every `interval` batches, and
// promotes the spool to --out by rename. EXPERIMENTS.md budgets the
// delta at the CLI-default interval under 3%.
void BM_GenerateToDisk(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto config = scaling_config(static_cast<std::size_t>(state.range(0)));
  const fs::path out = fs::temp_directory_path() / "syrbench_gen.csv";
  for (auto _ : state) {
    workload::SyriaScenario scenario{config};
    util::AtomicFileWriter writer{out.string()};
    writer.write(proxy::log_csv_header());
    writer.write("\n");
    scenario.run([&](const proxy::LogRecord& record) {
      writer.write(proxy::to_csv(record));
      writer.write("\n");
    });
    benchmark::DoNotOptimize(writer.commit().bytes);
  }
  fs::remove(out);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_requests));
}
BENCHMARK(BM_GenerateToDisk)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_GenerateToDiskCheckpointed(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto config = scaling_config(static_cast<std::size_t>(state.range(0)));
  const fs::path dir = fs::temp_directory_path() / "syrbench_gen_ckpt";
  const fs::path out = fs::temp_directory_path() / "syrbench_gen_ckpt.csv";
  for (auto _ : state) {
    fs::remove_all(dir);
    fs::remove(out);
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.string();
    options.commit_interval = static_cast<std::size_t>(state.range(1));
    durable::CheckpointedRun run = durable::run_checkpointed(
        scenario, options, [](const proxy::LogRecord&) {});
    benchmark::DoNotOptimize(
        durable::finalize_output(dir.string(), run.manifest, out.string())
            .bytes);
  }
  fs::remove_all(dir);
  fs::remove(out);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.total_requests));
}
BENCHMARK(BM_GenerateToDiskCheckpointed)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

// The analysis fan-out alone (full paper-style report over a prebuilt
// study); the study is built once and shared, so this isolates the
// analyzer thread-pool scaling.
void BM_FullReport(benchmark::State& state) {
  auto config = scaling_config(static_cast<std::size_t>(state.range(0)));
  core::Study& study = study_for(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::render_full_report(study).size());
  }
}
BENCHMARK(BM_FullReport)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
