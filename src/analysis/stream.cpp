#include "analysis/stream.h"

#include <cerrno>
#include <span>
#include <stdexcept>
#include <string_view>

namespace syrwatch::analysis {

void SpoolTail::resume_at(std::uint64_t offset) {
  if (polled_)
    throw std::logic_error("SpoolTail::resume_at after the first poll");
  consumed_ = offset;
  // The header is the first line of the file; a resumed tail positioned
  // past byte 0 will only ever see record lines.
  reader_.expect_header(offset == 0);
}

std::size_t SpoolTail::poll(
    const std::function<void(const proxy::LogRecordView&)>& sink) {
  polled_ = true;
  util::VfsStat st;
  if (!vfs_->stat(path_, st)) return 0;  // spool not created yet

  // Rotation/truncation detection: a different inode means the file was
  // replaced (rotated) under us; a size below our position means it was
  // truncated in place. Either way the bytes we were positioned in are
  // gone — reopen from the top of the new content and record the gap
  // rather than wedging the watch loop forever.
  if ((inode_ != 0 && st.inode != inode_) || st.size < consumed_) {
    ++gaps_;
    consumed_ = 0;
    lines_.clear();
    reader_.expect_header(true);
  }
  inode_ = st.inode;

  const int fd = vfs_->open(path_, util::OpenMode::kRead);
  if (fd < 0) return 0;  // raced an unlink between stat and open

  std::size_t delivered = 0;
  std::string_view line;
  int retries = 0;
  for (;;) {
    const std::span<char> space = lines_.space();
    const long got = vfs_->read(fd, space.data(), space.size(), consumed_);
    if (got < 0) {
      if (errno == EINTR && ++retries <= util::kMaxTransientRetries)
        continue;
      break;  // transient read failure: deliver what we have, next poll
    }
    if (got == 0) break;  // EOF
    retries = 0;
    consumed_ += static_cast<std::uint64_t>(got);
    lines_.filled(static_cast<std::size_t>(got));
    while (lines_.next(line)) {
      if (reader_.frame(line) != proxy::LineKind::kRecord) continue;
      sink(reader_.record());
      ++delivered;
    }
  }
  vfs_->close(fd);
  // Whatever is left in lines_.partial() is the torn-tail candidate: it
  // stays buffered until a later append completes the line.
  return delivered;
}

}  // namespace syrwatch::analysis
