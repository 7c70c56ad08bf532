#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace syrwatch::util {

/// Minimal POSIX plumbing for the multi-process sharded farm (src/shard):
/// a pipe pair, non-blocking fds, and a length-prefixed frame codec for
/// its two channels per worker: worker→coordinator status and
/// coordinator→worker data. Frames are `u32 length (LE) + payload`; every
/// status message is far below PIPE_BUF, so a single write() is atomic and
/// concurrent writers (there are none today, but a heartbeat thread would
/// be one) could share the fd without interleaving.

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
};

/// Creates a unidirectional pipe with both ends close-on-exec. Throws
/// std::runtime_error on failure (fd exhaustion).
Pipe make_pipe();

/// O_NONBLOCK on `fd`; throws std::runtime_error on failure.
void set_nonblocking(int fd);

/// Asks the kernel for a 1 MiB pipe buffer behind `fd`, so a writer can
/// queue a whole batch frame ahead of its reader. Best-effort: the default
/// buffer still works, with more wake-ups.
void grow_pipe(int fd) noexcept;

/// Closes `fd` if it is valid; EINTR-safe, never throws.
void close_fd(int fd) noexcept;

/// Frames `payload` (u32 LE length prefix) and writes it with one
/// write(). Returns false — without raising — when the read end is gone
/// (EPIPE) or any other error occurs: a worker whose coordinator died
/// keeps running, its spool is the durable record. Payloads longer than
/// kMaxFramePayload are refused (returns false).
bool write_frame(int fd, std::string_view payload) noexcept;

inline constexpr std::size_t kMaxFramePayload = 4096;

/// Reserves a length prefix at the end of `out` for a frame whose payload
/// the caller appends next, and returns where the frame starts. For
/// frames too large for write_frame, queued and written by the caller.
std::size_t begin_frame(std::string& out);

/// Fills in the length prefix of the frame begun at `start`: its payload
/// is everything appended to `out` since. Throws std::length_error when
/// the payload does not fit the u32 prefix.
void finish_frame(std::string& out, std::size_t start);

/// A malformed byte stream on a frame channel: a length prefix beyond the
/// reader's limit, or a payload its decoder rejects.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Incremental frame decoder over a non-blocking read fd: pump() slurps
/// whatever the pipe currently holds, next() yields complete payloads.
class FrameReader {
 public:
  /// Frames whose length prefix exceeds `max_payload` are refused.
  explicit FrameReader(std::size_t max_payload = kMaxFramePayload) noexcept
      : max_payload_(max_payload) {}

  /// Drops the frames next() already returned, then reads until the fd
  /// would block. Returns false on EOF (writer closed — for a worker pipe,
  /// the process exited); true while the stream is still open. Throws
  /// std::runtime_error on a read error.
  bool pump(int fd);

  /// The next complete frame payload, or nullopt when more bytes are
  /// needed. Drain after every pump(): several frames may arrive at once.
  /// The view stays valid until the next pump(). Throws FrameError on a
  /// length prefix beyond the reader's limit (a corrupt or foreign
  /// writer).
  std::optional<std::string_view> next();

  /// Bytes buffered but not yet consumed by next() — nonzero after EOF
  /// means the writer died mid-frame.
  std::size_t pending_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  /// Bytes of buffer_ that next() has handed out; pump() drops them.
  std::size_t consumed_ = 0;
  std::size_t max_payload_;
};

}  // namespace syrwatch::util
