#pragma once

#include <atomic>
#include <cstdint>

namespace syrwatch::util {

/// Cooperative cancellation with optional deadline: long-running phases
/// poll cancelled() at work-item boundaries and wind down cleanly when it
/// turns true. Cancellation never alters *what* a run computes — only how
/// far it gets — so a cancelled-then-resumed pipeline stays bit-identical
/// to an uninterrupted one.
///
/// request_cancel() is a single relaxed atomic store: async-signal-safe,
/// so a SIGINT handler may call it directly. cancelled() is safe from any
/// thread.
class CancelToken {
 public:
  /// Flips the token; idempotent, async-signal-safe.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Arms (or re-arms) a deadline `seconds` from now on the monotonic
  /// clock; non-positive values expire immediately.
  void set_deadline_after(double seconds) noexcept;

  /// True once request_cancel() ran or an armed deadline passed.
  bool cancelled() const noexcept;

  /// True when cancellation came from the deadline rather than an explicit
  /// request (for "deadline reached" vs "interrupted" messaging).
  bool deadline_expired() const noexcept;

  /// Disarms the deadline and clears the flag (test helper).
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_nanos_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Monotonic-clock deadline in nanoseconds; 0 = disarmed.
  std::atomic<std::uint64_t> deadline_nanos_{0};
};

/// Routes SIGINT and SIGTERM to `token.request_cancel()` via sigaction
/// (no SA_RESTART, so a coordinator blocked in poll() wakes immediately).
/// The token must outlive the handlers.
///
/// Multi-process contract: a fork() child inherits the handler but the
/// handler's target pointer then refers to the *child's copy* of whatever
/// token the parent armed — including any deadline the parent had already
/// set. A forked worker must therefore call install_stop_signals again on
/// its own freshly reset() token before doing any work, so Ctrl-C
/// delivered to the foreground process group stops every process
/// gracefully (each flushing its own checkpoint) instead of mixing parent
/// and child cancellation state.
void install_stop_signals(CancelToken& token) noexcept;

/// SIG_IGNs SIGPIPE in the calling process. A worker whose coordinator
/// died mid-run commits its progress and stops when its input runs out,
/// instead of being killed by the next status write into the broken pipe.
void ignore_sigpipe() noexcept;

}  // namespace syrwatch::util
