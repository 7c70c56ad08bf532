#pragma once

#include <cstdint>

#include "analysis/dataset.h"
#include "colfmt/container.h"

namespace syrwatch::analysis {

/// A SYRCOL1 container held as a ColumnStore: every block is decoded and
/// CRC-checked once, at construction, and stays resident (53 B/row) for
/// the object's lifetime, so no scan decodes; the file's column pages then
/// leave the resident set. String columns keep their dictionary ids,
/// whose text the reader's mapping serves. This is the
/// columnar backend of analysis::LogSource (scan.h); the analyzers
/// themselves are written once against the LogSource cursor.
class ColumnarLog : public ColumnStore {
 public:
  /// `threads` parallelizes the decode, one grain per block (the result
  /// is identical for any value). Throws std::runtime_error naming the
  /// block and page when a block fails its CRC or value checks.
  explicit ColumnarLog(colfmt::Reader reader, std::size_t threads = 1);
  /// Pinned: the store's id → text table is reader_'s dictionary.
  ColumnarLog(ColumnarLog&&) = delete;

  const colfmt::Reader& reader() const noexcept { return reader_; }
  std::size_t block_count() const noexcept { return chunks_.size(); }

 private:
  colfmt::Reader reader_;
};

}  // namespace syrwatch::analysis
