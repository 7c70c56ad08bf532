#include "core/study.h"

#include <stdexcept>
#include <utility>

#include "durable/checkpoint.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace syrwatch::core {

double RunMetrics::total_seconds() const noexcept {
  double total = 0.0;
  for (const obs::PhaseTiming& phase : phases) total += phase.seconds;
  return total;
}

Study::Study(workload::ScenarioConfig config)
    : config_(config),
      scenario_(std::make_unique<workload::SyriaScenario>(config)) {}

void Study::set_obs(obs::Context* ctx) {
  obs_ = ctx;
  if (scenario_) scenario_->set_obs(ctx);
}

void Study::simulate() { simulate(SimulateOptions{}); }

SimulateStatus Study::simulate(const SimulateOptions& options) {
  scenario_ = std::make_unique<workload::SyriaScenario>(config_);
  scenario_->set_obs(obs_);
  metrics_ = RunMetrics{};
  datasets_.reset();
  log_.reset();

  auto full = std::make_unique<analysis::Dataset>();
  const auto sink = [&full](const proxy::LogRecord& record) {
    full->add(record);
  };
  const std::uint64_t start = obs::monotonic_nanos();
  bool completed = false;
  if (options.checkpoint_dir.empty()) {
    workload::RunControl control;
    control.cancel = options.cancel;
    completed = scenario_->run(sink, control);
  } else {
    durable::CheckpointOptions checkpoint;
    checkpoint.directory = options.checkpoint_dir;
    checkpoint.resume = options.resume;
    checkpoint.cancel = options.cancel;
    checkpoint.commit_interval = options.commit_interval;
    checkpoint.after_commit = options.after_commit;
    completed = durable::run_checkpointed(*scenario_, checkpoint, sink)
                    .completed;
  }
  const double seconds =
      static_cast<double>(obs::monotonic_nanos() - start) * 1e-9;
  if (!completed) {
    // An interrupted window is a prefix, not a dataset — never arm
    // build_datasets() with it. The checkpoint (if any) holds the bytes.
    metrics_.phases.push_back({"simulate", seconds, full->size()});
    return SimulateStatus::kInterrupted;
  }
  metrics_.log_records = full->size();
  metrics_.phases.push_back({"simulate", seconds, metrics_.log_records});
  log_ = std::move(full);
  return SimulateStatus::kComplete;
}

StudyResult Study::build_datasets() {
  if (!log_ || datasets_)
    throw std::logic_error("Study::build_datasets: simulate() first");
  const std::uint64_t start = obs::monotonic_nanos();
  {
    const obs::Span span{obs_, "study.build_datasets"};
    datasets_ = analysis::derive_sources(
        *log_, config_.seed, util::resolve_threads(config_.threads));
  }
  const double seconds =
      static_cast<double>(obs::monotonic_nanos() - start) * 1e-9;
  metrics_.phases.push_back(
      {"build_datasets", seconds, datasets_->full.rows()});
  return StudyResult{*datasets_, metrics_};
}

StudyResult Study::run() {
  simulate();
  return build_datasets();
}

const analysis::DerivedSources& Study::datasets() const {
  if (!datasets_) throw std::logic_error("Study::datasets: run() first");
  return *datasets_;
}

}  // namespace syrwatch::core
