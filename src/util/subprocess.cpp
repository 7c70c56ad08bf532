#include "util/subprocess.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace syrwatch::util {

Pipe make_pipe() {
  int fds[2];
  if (::pipe(fds) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  // Close-on-exec so an unrelated exec in either process cannot leak the
  // farm's status channel into a stranger.
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return {fds[0], fds[1]};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    throw std::runtime_error(std::string("fcntl(O_NONBLOCK): ") +
                             std::strerror(errno));
}

void grow_pipe(int fd) noexcept {
#ifdef F_SETPIPE_SZ
  ::fcntl(fd, F_SETPIPE_SZ, 1 << 20);
#else
  static_cast<void>(fd);
#endif
}

void close_fd(int fd) noexcept {
  if (fd < 0) return;
  // POSIX leaves the fd state unspecified after EINTR; retrying close on
  // Linux is harmless (the fd is gone either way) and we never reuse it.
  ::close(fd);
}

bool write_frame(int fd, std::string_view payload) noexcept {
  if (fd < 0 || payload.size() > kMaxFramePayload) return false;
  char frame[4 + kMaxFramePayload];
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  frame[0] = static_cast<char>(size & 0xFF);
  frame[1] = static_cast<char>((size >> 8) & 0xFF);
  frame[2] = static_cast<char>((size >> 16) & 0xFF);
  frame[3] = static_cast<char>((size >> 24) & 0xFF);
  std::memcpy(frame + 4, payload.data(), payload.size());
  const std::size_t total = 4 + payload.size();
  // Frames can exceed PIPE_BUF, and even below it a signal-interrupted
  // write may land partially — advance past whatever made it out instead
  // of dropping the tail (the reader would desync on a torn frame).
  std::size_t off = 0;
  int retries = 0;
  while (off < total) {
    const ssize_t wrote = ::write(fd, frame + off, total - off);
    if (wrote > 0) {
      off += static_cast<std::size_t>(wrote);
      retries = 0;
      continue;
    }
    if (wrote < 0 && errno == EINTR && ++retries <= 64) continue;
    // Zero-progress or a real error (EPIPE, EBADF): the coordinator is
    // gone — carry on without it.
    return false;
  }
  return true;
}

std::size_t begin_frame(std::string& out) {
  const std::size_t start = out.size();
  out.append(4, '\0');
  return start;
}

void finish_frame(std::string& out, std::size_t start) {
  const std::size_t size = out.size() - start - 4;
  if (size > 0xFFFFFFFFu)
    throw std::length_error("frame payload of " + std::to_string(size) +
                            " bytes does not fit a u32 length prefix");
  for (int i = 0; i < 4; ++i)
    out[start + i] = static_cast<char>((size >> (8 * i)) & 0xFF);
}

bool FrameReader::pump(int fd) {
  // Compact once per pump, not once per frame: erasing each consumed frame
  // from the front made draining n buffered frames O(n × buffer size).
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) return false;  // EOF: writer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    throw std::runtime_error(std::string("pipe read: ") +
                             std::strerror(errno));
  }
}

std::optional<std::string_view> FrameReader::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  const char* const frame = buffer_.data() + consumed_;
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(frame[i]));
  };
  const std::uint32_t size =
      byte(0) | (byte(1) << 8) | (byte(2) << 16) | (byte(3) << 24);
  if (size > max_payload_)
    throw FrameError("pipe frame: oversized length prefix (" +
                     std::to_string(size) + " bytes, limit " +
                     std::to_string(max_payload_) + ")");
  if (available - 4 < size) return std::nullopt;
  consumed_ += 4 + static_cast<std::size_t>(size);
  return std::string_view{frame + 4, size};
}

}  // namespace syrwatch::util
