#include "shard/worker.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <poll.h>

#include "durable/checkpoint.h"
#include "shard/plan.h"
#include "shard/protocol.h"
#include "util/cancel.h"
#include "util/subprocess.h"

namespace syrwatch::shard {

namespace {

void send(int fd, const Message& message) {
  // Best-effort by design: the checkpoint directory is the durable record,
  // the pipe only feeds supervision. A vanished coordinator (EPIPE) must
  // not take the worker down with it.
  util::write_frame(fd, encode(message));
}

/// The worker's end of the data channel.
class BatchFeed {
 public:
  BatchFeed(int fd, std::uint64_t proxy_mask,
            const util::CancelToken& cancel)
      : fd_(fd), proxy_mask_(proxy_mask), cancel_(cancel) {
    util::set_nonblocking(fd_);
  }

  /// Waits for the next batch frame and decodes it into `batch`. False
  /// when the channel reached EOF (a torn last frame included) or the
  /// worker was cancelled; throws util::FrameError on a malformed frame.
  bool next(workload::RoutedBatch& batch) {
    for (;;) {
      if (const auto frame = reader_.next()) {
        decode_batch_frame(*frame, proxy_mask_, batch);
        return true;
      }
      if (eof_ || cancel_.cancelled()) return false;
      pollfd ready{fd_, POLLIN, 0};
      const int n = ::poll(&ready, 1, 50);
      if (n < 0 && errno != EINTR)
        throw std::runtime_error(std::string("shard worker: poll: ") +
                                 std::strerror(errno));
      if (n > 0) eof_ = !reader_.pump(fd_);
    }
  }

 private:
  int fd_;
  std::uint64_t proxy_mask_;
  const util::CancelToken& cancel_;
  util::FrameReader reader_{kMaxBatchFrame};
  bool eof_ = false;
};

}  // namespace

int run_worker(const WorkerSpec& spec, int status_fd, int data_fd) noexcept {
  try {
    // The parent's CancelToken (and its signal bindings) died with the
    // fork; give this process its own so the coordinator's SIGTERM
    // fan-out lands as a cooperative cancel, not default termination.
    static util::CancelToken cancel;
    cancel.reset();
    util::install_stop_signals(cancel);
    util::ignore_sigpipe();

    workload::SyriaScenario& scenario = *spec.scenario;
    // A worker's counters die with its process; keep its phases off the
    // copy of the coordinator's registry it inherited.
    scenario.set_obs(nullptr);

    durable::CheckpointOptions options;
    options.directory = spec.directory;
    // Uniform for coordinator --resume and crash-restart alike: our own
    // manifest's existence is the resume signal. A fresh coordinator run
    // starts with empty shard dirs, so this never mistakes one for the
    // other.
    const std::string manifest_path =
        (std::filesystem::path{spec.directory} /
         durable::RunManifest::kFileName)
            .string();
    options.resume = std::filesystem::exists(manifest_path);
    const std::uint64_t next_batch =
        options.resume ? durable::RunManifest::load(manifest_path).next_batch
                       : 0;
    options.cancel = &cancel;
    options.command = worker_command(spec.worker, spec.workers,
                                     spec.proxy_mask);
    options.commit_interval = spec.commit_interval;
    options.record_keys = true;
    // The run calls batch_source off this thread while the sink and the
    // hooks below run for the previous batch, and after_commit runs on the
    // checkpoint's writer thread: the feed reads only the data fd and the
    // cancel token, the hooks write only whole frames to the status fd.
    BatchFeed feed{data_fd, spec.proxy_mask, cancel};
    options.batch_source = [&feed](std::size_t,
                                   workload::RoutedBatch& batch) {
      return feed.next(batch);
    };

    // Counted by the sink on this thread and read by after_commit on the
    // checkpoint's writer, which may already see some of the next batch's
    // records: the count is cumulative, not a commit boundary.
    std::atomic<std::uint64_t> records{0};
    const bool fresh_attempt = !options.resume;
    options.on_progress = [&](std::size_t batch) {
      Message beat;
      beat.type = MessageType::kHeartbeat;
      beat.worker = spec.worker;
      beat.batch = batch;
      send(status_fd, beat);
      if (fresh_attempt && batch == spec.stall_after_batch &&
          spec.stall_seconds > 0)
        std::this_thread::sleep_for(
            std::chrono::seconds(spec.stall_seconds));
    };
    options.after_commit = [&](std::size_t batch) {
      Message done;
      done.type = MessageType::kBatchDone;
      done.worker = spec.worker;
      done.batch = batch;
      done.status = records.load(std::memory_order_relaxed);
      send(status_fd, done);
    };

    Message hello;
    hello.type = MessageType::kHello;
    hello.worker = spec.worker;
    hello.status = next_batch;
    send(status_fd, hello);

    const durable::CheckpointedRun run = durable::run_checkpointed(
        scenario, options,
        [&](const proxy::LogRecord&) {
          // One writer: a plain load and store, no locked increment.
          records.store(records.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
        });

    Message bye;
    bye.type = MessageType::kShutdown;
    bye.worker = spec.worker;
    bye.batch = run.manifest.next_batch;
    bye.status = run.completed ? 0 : 1;
    send(status_fd, bye);
    return run.completed ? kWorkerCompleted : kWorkerInterrupted;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "shard worker %zu: %s\n", spec.worker,
                 error.what());
    return kWorkerError;
  } catch (...) {
    std::fprintf(stderr, "shard worker %zu: unknown exception\n",
                 spec.worker);
    return kWorkerError;
  }
}

}  // namespace syrwatch::shard
