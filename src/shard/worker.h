#pragma once

#include <cstdint>
#include <string>

#include "workload/scenario.h"

namespace syrwatch::shard {

/// The body of one shard worker process. The coordinator forks (no exec —
/// the child shares the binary) and the child calls run_worker(), then
/// std::_Exit()s with its return value: no destructors, no atexit, no
/// flushing of streams it shares with the parent.

/// Exit codes run_worker returns (and the coordinator interprets).
inline constexpr int kWorkerCompleted = 0;    ///< shard fully generated
inline constexpr int kWorkerInterrupted = 3;  ///< cancelled or input lost;
                                              ///< resumable
inline constexpr int kWorkerError = 1;        ///< exception; message on stderr

struct WorkerSpec {
  /// The scenario the worker filters with: the coordinator's own,
  /// inherited through fork(). The coordinator only generates and routes,
  /// which writes no farm state, so its farm is as built.
  workload::SyriaScenario* scenario = nullptr;
  std::size_t worker = 0;
  std::size_t workers = 1;
  std::uint64_t proxy_mask = 0;
  /// This worker's private checkpoint directory (…/shard-NN).
  std::string directory;
  std::size_t commit_interval = 1;
  /// worker-stall injection: sleep stall_seconds after this batch's bytes
  /// land, but only on a fresh (non-resumed) attempt — a restarted worker
  /// must run clean or the run never finishes. SIZE_MAX = no stall.
  std::size_t stall_after_batch = static_cast<std::size_t>(-1);
  unsigned stall_seconds = 0;
};

/// Runs the shard to completion (or cancellation) inside the current
/// process: reinstalls SIGINT/SIGTERM onto a fresh post-fork CancelToken,
/// ignores SIGPIPE, decides fresh-vs-resume by the presence of its own
/// manifest, sends HELLO with the manifest's next_batch over `status_fd`,
/// then filters the batch frames the coordinator writes to `data_fd`,
/// reporting HEARTBEAT / BATCH_DONE / SHUTDOWN as it goes. When `data_fd`
/// reaches EOF before the last batch (the coordinator is gone), the worker
/// commits what it has, marks its manifest interrupted and returns
/// kWorkerInterrupted. Never throws: an exception — a malformed data
/// frame included — is reported on stderr and becomes kWorkerError.
int run_worker(const WorkerSpec& spec, int status_fd, int data_fd) noexcept;

}  // namespace syrwatch::shard
