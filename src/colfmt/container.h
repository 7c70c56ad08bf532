#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proxy/log_record.h"
#include "util/atomic_io.h"
#include "util/mmap_file.h"
#include "util/string_pool.h"

namespace syrwatch::colfmt {

/// `SYRCOL1` — a checksummed, block-structured columnar container for
/// proxy logs, the on-disk analogue of analysis::Dataset's interned row
/// store. The design goals, in order: (1) mmap-friendly — a reader maps
/// the file once and hands out zero-copy string_views into it; (2) damage
/// evidence — every page carries a CRC32 (util::Crc32, the same polynomial
/// the run manifests use), so a flipped byte is detected at the page that
/// holds it; (3) tail recovery — blocks are self-delimiting and carry
/// *dictionary deltas* (only the strings first seen in that block), so a
/// file whose index/footer was lost to a crash is recoverable block by
/// block from the front, mirroring LogReadStats::truncated_tail for CSV.
///
/// Layout:
///
///   "SYRCOL1\n"                                  file magic (8 bytes)
///   block*                                       self-delimiting blocks
///   index: {u64 offset, u32 rows, u32 dict_new}* one entry per block
///   footer (60 bytes, fixed):
///     u64 index_offset, u64 block_count, u64 row_count, u64 dict_count,
///     u64 index_crc32, u64 version; u32 footer_crc32 (of the previous
///     48 bytes); "SYRCOL1\n"
///
///   block:
///     u32 "SYRB", u32 rows, u32 dict_new, u32 header_crc32
///     page[kPageCount]: u32 payload_bytes, u32 payload_crc32, payload
///
/// Pages (fixed order; one column each, plus the dictionary delta):
///   dict     — dict_new strings, each varint length + bytes; ids are
///              assigned globally in block order, id 0 is always ""
///   time     — zigzag varints: first value absolute, then deltas
///   proxy    — raw u8 per row
///   user     — varint u64 (0 = suppressed c-ip, the common case)
///   method/host/port/path/query/agent/categories/status — varints
///   scheme/result/exception — raw u8 per row
///   dest     — varint u64: 0 = no r-ip, else ip value + 1
///
/// Everything CSV round-trips is preserved: csv → records → col → records
/// → csv is byte-identical (cs-uri-ext is derived from the path in both
/// formats).

inline constexpr std::string_view kMagic = "SYRCOL1\n";
inline constexpr std::uint32_t kBlockMagic = 0x42525953u;  // "SYRB"
inline constexpr std::uint64_t kVersion = 1;
inline constexpr std::size_t kFooterBytes = 60;

/// Page order inside a block.
enum Page : std::size_t {
  kPageDict = 0,
  kPageTime,
  kPageProxy,
  kPageUserHash,
  kPageMethod,
  kPageScheme,
  kPageHost,
  kPagePort,
  kPagePath,
  kPageQuery,
  kPageAgent,
  kPageCategories,
  kPageStatus,
  kPageFilterResult,
  kPageException,
  kPageDestIp,
  kPageCount,
};

std::string_view page_name(std::size_t page) noexcept;

/// True when `bytes` begins with the container magic — the cheap format
/// sniff the CLI uses to route a file to the right reader.
bool looks_like_container(std::string_view bytes) noexcept;
bool file_looks_like_container(const std::string& path);

struct WriterOptions {
  /// Rows per block. Larger blocks amortize page framing and improve
  /// delta/varint locality; smaller blocks bound the damage a bad page
  /// costs and give parallel scans more grains. 64K rows ≈ 1-2 MB of
  /// encoded pages on the Syria workload.
  std::size_t block_rows = 64 * 1024;
  /// Storage layer for the container bytes (nullptr = process default);
  /// tests inject a FaultyVfs to exercise storage-failure paths.
  util::Vfs* vfs = nullptr;
};

/// Streaming writer: add() records in log order, finish() seals the file.
/// Writes through util::AtomicFileWriter — the container appears complete
/// at `path` or not at all, and finish() returns the artifact digest for
/// manifest bookkeeping.
class Writer {
 public:
  explicit Writer(std::string path, WriterOptions options = {});
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void add(const proxy::LogRecordView& record);
  void add(const proxy::LogRecord& record) { add(proxy::view_of(record)); }

  /// Flushes the tail block, writes index + footer, commits the file.
  /// At most once; add() after finish() is a logic error.
  util::ArtifactInfo finish();

  /// Drops the temp file without touching `path`.
  void abandon() noexcept;

  std::uint64_t rows() const noexcept { return rows_; }

 private:
  struct BlockBuilder;
  void flush_block();

  std::unique_ptr<util::AtomicFileWriter> out_;
  std::unique_ptr<BlockBuilder> block_;
  WriterOptions options_;
  // Dictionary: string → id, id order = first sight across the file;
  // id 0 = "" is implicit, never written.
  util::StringPool dict_;
  std::uint64_t rows_ = 0;
  std::string index_;  // accumulated index entries
  std::uint64_t block_count_ = 0;
  bool finished_ = false;
};

/// One block's columns, decoded (CRC-verified) out of the mapping into
/// dense arrays: 53 bytes/row. Strings stay behind dictionary ids —
/// resolve through Reader::view(). This is also the in-memory layout of
/// the analysis layer: analysis::ColumnarLog keeps every block of a
/// container decoded for its lifetime, and analysis::Dataset appends rows
/// into 64Ki-row chunks of the same shape (ids into its StringPool).
struct DecodedBlock {
  std::size_t rows = 0;
  std::uint64_t row_base = 0;  // global ordinal of the block's first row
  std::vector<std::int64_t> time;
  std::vector<std::uint64_t> user_hash;
  std::vector<std::uint32_t> method, host, path, query, agent, categories;
  std::vector<std::uint16_t> port, status;
  std::vector<std::uint8_t> proxy_index, scheme, filter_result, exception;
  std::vector<std::uint32_t> dest_ip;   // meaningful where has_dest != 0
  std::vector<std::uint8_t> has_dest;
};

struct BlockInfo {
  std::uint64_t offset = 0;     // file offset of the block header
  std::uint32_t rows = 0;
  std::uint32_t dict_new = 0;
  std::uint64_t dict_base = 0;  // ids [dict_base, dict_base+dict_new) born here
  std::uint64_t row_base = 0;   // global ordinal of the block's first row
};

/// What a lenient open saw — the columnar mirror of proxy::LogReadStats.
struct RecoveryStats {
  /// Footer + index parsed and their CRCs matched; blocks came from the
  /// index. False = the file was recovered by a front-to-back block scan.
  bool footer_ok = false;
  /// The file ends in damage: a missing/corrupt footer, a torn final
  /// block, or trailing bytes that are not a whole block. Analyses should
  /// surface this exactly like a torn CSV tail.
  bool truncated_tail = false;
  std::uint64_t blocks_recovered = 0;
  std::uint64_t rows_recovered = 0;
  /// Bytes of the file covered by recovered blocks (+ header magic).
  std::uint64_t bytes_recovered = 0;
  std::uint64_t file_bytes = 0;
  /// Human-readable reason recovery stopped; empty for a clean file.
  std::string damage;
};

/// mmap-backed reader. open() demands an intact footer/index and verifies
/// the dictionary pages it materializes (column pages are verified by
/// decode()); open_lenient() additionally accepts damaged files, keeping
/// every intact leading block — the columnar analogue of
/// proxy::read_log_lenient. The Reader owns the mapping; every
/// string_view it hands out lives exactly as long as the Reader.
class Reader {
 public:
  static Reader open(const std::string& path);
  static Reader open_lenient(const std::string& path, RecoveryStats* stats);

  std::size_t block_count() const noexcept { return blocks_.size(); }
  const std::vector<BlockInfo>& blocks() const noexcept { return blocks_; }
  std::uint64_t rows() const noexcept { return rows_; }
  std::uint64_t dict_size() const noexcept { return dict_.size(); }
  const std::string& path() const noexcept { return map_.path(); }

  /// The dictionary string behind an id — a zero-copy view into the
  /// mapping. Throws std::out_of_range on an id the file never defined.
  std::string_view view(std::uint32_t id) const { return dict_.at(id); }

  /// The whole dictionary, indexed by id: the unchecked id → text table
  /// for ids decode() has validated.
  const std::vector<std::string_view>& dictionary() const noexcept {
    return dict_;
  }

  /// Decodes (and CRC-verifies) one block. Throws std::runtime_error,
  /// naming the block and the page at fault, on a corrupt page or an
  /// out-of-range column value. Safe to call from many threads
  /// concurrently — the reader is immutable after open.
  DecodedBlock decode(std::size_t block_index) const;

  /// Drops the column pages of block `block_index` (< block_count()) from
  /// the resident set, for a caller that keeps its decoded columns. The
  /// dictionary page stays: dictionary() serves views into it.
  void release_columns(std::size_t block_index) const noexcept;

  /// One row as a view into the dictionary (the csv codec's input) —
  /// the conversion path of `syrwatchctl convert`.
  proxy::LogRecordView record_view(const DecodedBlock& block,
                                   std::size_t row) const;
  /// The same row as an owning LogRecord.
  proxy::LogRecord record(const DecodedBlock& block, std::size_t row) const;

 private:
  Reader() = default;

  util::MappedFile map_;
  std::vector<std::string_view> dict_;  // id → bytes inside the mapping
  std::vector<BlockInfo> blocks_;
  std::uint64_t rows_ = 0;
};

/// Integrity report of verify_file: every page of every block re-checked
/// against its CRC32, plus the footer/index framing.
struct VerifyReport {
  bool ok = false;
  bool footer_ok = false;
  std::uint64_t blocks = 0;
  std::uint64_t rows = 0;
  std::uint64_t pages_checked = 0;
  std::uint64_t bad_pages = 0;
  /// First failure, as "block B page NAME: reason"; empty when ok.
  std::string first_error;
};

/// Re-checks the whole container: footer, index CRC, every block header
/// and page CRC. Detects a single flipped byte anywhere in the file.
VerifyReport verify_file(const std::string& path);

}  // namespace syrwatch::colfmt
