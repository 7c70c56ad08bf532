#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scan.h"
#include "obs/context.h"
#include "obs/export.h"
#include "util/cancel.h"
#include "workload/scenario.h"

namespace syrwatch::core {

/// Wall-clock accounting for one study run: one PhaseTiming per completed
/// phase ("simulate", "build_datasets"), in execution order. Purely
/// observational — nothing here feeds back into the simulation.
struct RunMetrics {
  std::vector<obs::PhaseTiming> phases;
  /// Records the scenario emitted into the pending log (post leak filter).
  std::uint64_t log_records = 0;

  double total_seconds() const noexcept;
};

/// What a completed run hands back: the paper's four datasets as views
/// over the Study's log (valid until the next simulate()/run()) plus the
/// run's metrics.
struct StudyResult {
  const analysis::DerivedSources& datasets;
  RunMetrics metrics;
};

/// Durability/cancellation knobs for Study::simulate. The defaults
/// reproduce the plain uncheckpointed run exactly.
struct SimulateOptions {
  /// Cooperative cancellation (SIGINT handler, --deadline): polled by the
  /// generation parallel_for and at batch boundaries of the processing
  /// phase. Cancellation never truncates a batch — the log seen so far is
  /// always a whole number of batches.
  const util::CancelToken* cancel = nullptr;
  /// Non-empty enables batch-granular checkpointing (durable::
  /// run_checkpointed) under this directory.
  std::string checkpoint_dir;
  /// Resume the checkpoint in checkpoint_dir: verify its manifest, replay
  /// the committed spool prefix, regenerate only the missing batches. The
  /// final log is bit-identical to an uninterrupted run (any thread
  /// count).
  bool resume = false;
  /// Durable-commit cadence forwarded to the checkpointer (see
  /// durable::CheckpointOptions::commit_interval).
  std::size_t commit_interval = 1;
  /// Test hook forwarded to the checkpointer: runs on its writer thread
  /// after each batch's checkpoint is durable; throwing simulates a crash
  /// at that boundary.
  std::function<void(std::size_t committed_batch)> after_commit;
};

enum class SimulateStatus {
  kComplete,
  /// Cancellation stopped the run early. The partial log never becomes a
  /// pending dataset (build_datasets would silently analyze a truncated
  /// window); with a checkpoint_dir the progress is on disk and resumable.
  kInterrupted,
};

/// End-to-end study driver: simulate the censorship ecosystem, capture the
/// "leaked" log, and derive the paper's four datasets. Analyses are the
/// free functions of syrwatch::analysis; `report.h` renders the complete
/// paper-style report.
///
/// The run is structured as two explicit phases — simulate() generates the
/// log, build_datasets() derives the Table 1 views — with run() as the
/// do-both convenience. Each phase records a PhaseTiming into metrics();
/// attach an obs::Context beforehand for stage-level detail underneath.
class Study {
 public:
  explicit Study(workload::ScenarioConfig config = {});

  /// Attaches the observability layer: the scenario, farm, and proxies
  /// resolve their instruments against the context's registry, and the
  /// phase methods keep recording timings either way. A null context (the
  /// default) keeps everything on the pre-obs code path; the generated log
  /// is byte-identical attached or detached (DESIGN.md §4.7). The context
  /// must outlive the study.
  void set_obs(obs::Context* ctx);
  obs::Context* obs_context() const noexcept { return obs_; }

  /// Phase 1: rebuilds the scenario (so repeated runs start from identical
  /// generator state — the farm's caches and PRNGs advance during a run)
  /// and streams the "leaked" log into a pending dataset. Invalidates any
  /// previously derived views.
  void simulate();

  /// Controlled phase 1: cancellation, checkpointing, and resume per
  /// `options`. Only a kComplete run arms build_datasets().
  SimulateStatus simulate(const SimulateOptions& options);

  /// Phase 2: derives the four datasets from the pending log
  /// (analysis::derive_sources at the scenario seed). Throws
  /// std::logic_error unless simulate() ran since the last derivation.
  StudyResult build_datasets();

  /// Both phases back to back. Idempotent: re-running regenerates from
  /// scratch with the same seed, yielding identical datasets.
  StudyResult run();

  bool has_run() const noexcept { return datasets_.has_value(); }
  const workload::SyriaScenario& scenario() const noexcept {
    return *scenario_;
  }
  workload::SyriaScenario& scenario() noexcept { return *scenario_; }
  const analysis::DerivedSources& datasets() const;
  /// Phase timings of the most recent simulate()/build_datasets() pair.
  const RunMetrics& metrics() const noexcept { return metrics_; }

 private:
  workload::ScenarioConfig config_;
  std::unique_ptr<workload::SyriaScenario> scenario_;
  /// The log of the last complete simulate(), and the views
  /// build_datasets() derived from it (empty until then).
  std::unique_ptr<analysis::Dataset> log_;
  std::optional<analysis::DerivedSources> datasets_;
  RunMetrics metrics_;
  obs::Context* obs_ = nullptr;
};

}  // namespace syrwatch::core
