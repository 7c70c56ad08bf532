#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/scan.h"
#include "proxy/log_io.h"
#include "util/vfs.h"

namespace syrwatch::analysis {

/// Incremental consumption of the durable layer's CSV spool (DESIGN.md
/// §4.8): the spool is the run's write-ahead log — header + record lines,
/// append-only, flushed per batch — so tailing it is how the online mode
/// observes a run in flight (§4.12).
///
/// The tailing contract:
///  - poll() reads bytes appended since the last poll and parses every
///    *complete* line (ending in '\n'). Bytes after the last newline are
///    the torn-tail candidate — a write may land mid-line between polls —
///    and are buffered, never parsed, until a later poll completes them.
///    A crash that leaves the tail torn forever simply leaves those bytes
///    pending; everything durable before them was already delivered.
///  - offset() is always a line boundary: the byte offset of the first
///    unconsumed complete line (equivalently, the start of the pending
///    partial line). Construct-and-resume_at(offset()) on a fresh tail
///    replays nothing and misses nothing — byte-identical to having
///    cold-tailed the whole file (the resume contract tests assert).
///  - Lines are framed by the proxy::LogLineReader every csv reader
///    shares: malformed lines are skipped and tallied exactly like
///    proxy::read_log_lenient tallies them (stats()), so a damaged spool
///    degrades identically online and offline.
///  - A spool rotated (replaced: inode change) or truncated underneath
///    the tail does not wedge the watch loop: the tail reopens by path,
///    restarts from byte 0 of the new file, and counts a gap (gaps()) —
///    records written between the last poll and the rotation are gone,
///    which the watch report surfaces as [DEGRADED DATA].
class SpoolTail {
 public:
  explicit SpoolTail(std::string path, util::Vfs* vfs = nullptr)
      : vfs_(&util::vfs_or_default(vfs)), path_(std::move(path)) {}

  /// Drains newly appended complete lines into `sink`, each record a view
  /// valid during the call. Returns the record count delivered. A missing
  /// file is not an error (the run may not have created the spool yet):
  /// the poll simply delivers nothing.
  std::size_t poll(
      const std::function<void(const proxy::LogRecordView&)>& sink);

  /// Resume point: consumed bytes up to the last complete line.
  std::uint64_t offset() const noexcept {
    return consumed_ - lines_.partial().size();
  }
  /// Bytes consumed including the pending partial line.
  std::uint64_t consumed_bytes() const noexcept { return consumed_; }
  /// Size of the pending (torn-tail candidate) fragment.
  std::size_t pending_bytes() const noexcept {
    return lines_.partial().size();
  }

  /// Starts tailing at `offset` — which must be a line boundary offset a
  /// previous tail's offset() reported (0 = the file start). Only valid
  /// before the first poll().
  void resume_at(std::uint64_t offset);

  const proxy::LogReadStats& stats() const noexcept {
    return reader_.stats();
  }
  const std::string& path() const noexcept { return path_; }
  /// Times the tailed file was rotated/truncated underneath us; each one
  /// is a window of records this tail can never deliver.
  std::uint64_t gaps() const noexcept { return gaps_; }

 private:
  util::Vfs* vfs_;
  std::string path_;
  std::uint64_t consumed_ = 0;  // bytes read from the file so far
  std::uint64_t inode_ = 0;     // of the file last polled (0 = none yet)
  std::uint64_t gaps_ = 0;      // rotations/truncations survived
  proxy::LineBuffer lines_;     // partial(): bytes after the last '\n'
  proxy::LogLineReader reader_;
  bool polled_ = false;
};

/// SpoolTail + Dataset glued together: the streaming source. Each poll()
/// drains newly committed spool records into the dataset, in WAL order;
/// source() is a fresh LogSource view over everything ingested so far,
/// and scan_increment(source(), hw, fn) feeds analyzers only the records
/// new since their last high-water mark. poll() and scans must not
/// overlap (one poll loop: drain, then scan).
class StreamSource {
 public:
  explicit StreamSource(std::string spool_path, util::Vfs* vfs = nullptr)
      : tail_(std::move(spool_path), vfs) {}

  /// Drains the tail. Returns records appended to the dataset.
  std::size_t poll() {
    return tail_.poll(
        [this](const proxy::LogRecordView& record) { log_.add(record); });
  }

  LogSource source() const { return LogSource{log_}; }
  SpoolTail& tail() noexcept { return tail_; }
  const SpoolTail& tail() const noexcept { return tail_; }

 private:
  SpoolTail tail_;
  Dataset log_;
};

}  // namespace syrwatch::analysis
