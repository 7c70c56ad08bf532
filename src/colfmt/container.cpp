#include "colfmt/container.h"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "colfmt/varint.h"
#include "util/checksum.h"

namespace syrwatch::colfmt {

namespace {

constexpr std::size_t kBlockHeaderBytes = 16;
constexpr std::size_t kPageHeaderBytes = 8;
constexpr std::size_t kIndexEntryBytes = 16;
// LogRecord::proxy_address() maps index i to s-ip octet 42+i; the leak has
// seven proxies (SG-42..SG-48), and the CSV reader enforces the same range.
constexpr std::uint8_t kMaxProxyIndex = 6;

constexpr std::array<std::string_view, kPageCount> kPageNames = {
    "dict",   "time",       "proxy",  "user",      "method",    "scheme",
    "host",   "port",       "path",   "query",     "agent",     "categories",
    "status", "filter",     "exception", "dest",
};

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>(value >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>(value >> (8 * i)));
}

std::uint32_t get_u32(const char* p) noexcept {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= std::uint32_t{static_cast<std::uint8_t>(p[i])} << (8 * i);
  return value;
}

std::uint64_t get_u64(const char* p) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= std::uint64_t{static_cast<std::uint8_t>(p[i])} << (8 * i);
  return value;
}

/// Varint-or-raw-bytes cursor for the dictionary page.
struct ByteCursor {
  std::string_view data;
  std::size_t pos = 0;
  const char* context;

  std::uint64_t varint() {
    std::uint64_t value = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      if (pos == data.size())
        throw std::runtime_error(std::string(context) + ": truncated varint");
      const auto byte = static_cast<std::uint8_t>(data[pos++]);
      value |= std::uint64_t{byte & 0x7Fu} << shift;
      if ((byte & 0x80u) == 0) return value;
      shift += 7;
    }
    throw std::runtime_error(std::string(context) + ": varint overflow");
  }

  std::string_view take(std::size_t n) {
    if (data.size() - pos < n)
      throw std::runtime_error(std::string(context) + ": truncated bytes");
    const auto view = data.substr(pos, n);
    pos += n;
    return view;
  }

  bool done() const noexcept { return pos == data.size(); }
};

/// One block's structural framing: header fields + a view per page.
struct BlockFrame {
  std::uint32_t rows = 0;
  std::uint32_t dict_new = 0;
  std::array<std::string_view, kPageCount> pages;
  std::array<std::uint32_t, kPageCount> page_crc{};
  std::uint64_t end = 0;  // offset one past the block
};

/// Parses the block starting at `offset` (which must be < `limit`). When
/// `check_page_crc` is set every page payload is checksummed; the header
/// CRC is always checked. Returns false with `error` set on any damage.
bool parse_block_frame(std::string_view file, std::uint64_t offset,
                       std::uint64_t limit, BlockFrame& frame,
                       std::string& error, bool check_page_crc) {
  if (limit - offset < kBlockHeaderBytes) {
    error = "truncated block header";
    return false;
  }
  const char* head = file.data() + offset;
  if (get_u32(head) != kBlockMagic) {
    error = "bad block magic";
    return false;
  }
  frame.rows = get_u32(head + 4);
  frame.dict_new = get_u32(head + 8);
  if (util::crc32_of(std::string_view(head, 12)) != get_u32(head + 12)) {
    error = "block header checksum mismatch";
    return false;
  }
  std::uint64_t cursor = offset + kBlockHeaderBytes;
  for (std::size_t page = 0; page < kPageCount; ++page) {
    if (limit - cursor < kPageHeaderBytes) {
      error = "truncated page header (" + std::string(kPageNames[page]) + ")";
      return false;
    }
    const char* ph = file.data() + cursor;
    const std::uint32_t size = get_u32(ph);
    frame.page_crc[page] = get_u32(ph + 4);
    cursor += kPageHeaderBytes;
    if (limit - cursor < size) {
      error = "truncated page payload (" + std::string(kPageNames[page]) + ")";
      return false;
    }
    frame.pages[page] = file.substr(cursor, size);
    cursor += size;
    if (check_page_crc &&
        util::crc32_of(frame.pages[page]) != frame.page_crc[page]) {
      error = "page checksum mismatch (" + std::string(kPageNames[page]) + ")";
      return false;
    }
  }
  frame.end = cursor;
  return true;
}

/// Appends the dict-delta strings of one block to `dict` as views into the
/// mapping. The page CRC must have been verified by the caller.
void parse_dict_page(std::string_view payload, std::uint32_t dict_new,
                     std::vector<std::string_view>& dict) {
  ByteCursor cursor{payload, 0, "colfmt dict page"};
  for (std::uint32_t i = 0; i < dict_new; ++i) {
    const auto length = cursor.varint();
    if (length > payload.size())
      throw std::runtime_error("colfmt dict page: string length overflow");
    dict.push_back(cursor.take(static_cast<std::size_t>(length)));
  }
  if (!cursor.done())
    throw std::runtime_error("colfmt dict page: trailing bytes");
}

/// Everything the footer + index describe, validated without touching any
/// block bytes.
struct FooterParse {
  std::vector<BlockInfo> blocks;
  std::uint64_t rows = 0;
  std::uint64_t dict_count = 0;
  std::uint64_t index_offset = 0;
};

bool parse_footer(std::string_view file, FooterParse& out, std::string& error) {
  if (file.size() < kMagic.size() + kFooterBytes) {
    error = "file too small for a footer";
    return false;
  }
  const char* footer = file.data() + file.size() - kFooterBytes;
  if (std::string_view(footer + 52, 8) != kMagic) {
    error = "missing footer magic";
    return false;
  }
  if (util::crc32_of(std::string_view(footer, 48)) != get_u32(footer + 48)) {
    error = "footer checksum mismatch";
    return false;
  }
  out.index_offset = get_u64(footer);
  const std::uint64_t block_count = get_u64(footer + 8);
  out.rows = get_u64(footer + 16);
  out.dict_count = get_u64(footer + 24);
  const std::uint64_t index_crc = get_u64(footer + 32);
  const std::uint64_t version = get_u64(footer + 40);
  if (version != kVersion) {
    error = "unsupported container version";
    return false;
  }
  // Bounded by the file before anything is added, multiplied or sized by
  // them: an index entry takes 16 bytes, a dictionary entry at least 1.
  if (out.index_offset > file.size() ||
      block_count > file.size() / kIndexEntryBytes ||
      out.dict_count > file.size()) {
    error = "footer fields exceed the file size";
    return false;
  }
  if (out.index_offset < kMagic.size() ||
      out.index_offset + block_count * kIndexEntryBytes + kFooterBytes !=
          file.size()) {
    error = "footer geometry does not match file size";
    return false;
  }
  const auto index = file.substr(static_cast<std::size_t>(out.index_offset),
                                 static_cast<std::size_t>(block_count) *
                                     kIndexEntryBytes);
  if (util::crc32_of(index) != index_crc) {
    error = "index checksum mismatch";
    return false;
  }
  out.blocks.reserve(static_cast<std::size_t>(block_count));
  std::uint64_t expected_offset = kMagic.size();
  std::uint64_t row_base = 0;
  std::uint64_t dict_base = 1;  // id 0 = "" is implicit
  for (std::uint64_t i = 0; i < block_count; ++i) {
    const char* entry = index.data() + i * kIndexEntryBytes;
    BlockInfo info;
    info.offset = get_u64(entry);
    info.rows = get_u32(entry + 8);
    info.dict_new = get_u32(entry + 12);
    info.row_base = row_base;
    info.dict_base = dict_base;
    if (info.offset < expected_offset || info.offset >= out.index_offset) {
      error = "index entry offset out of order";
      return false;
    }
    expected_offset = info.offset + kBlockHeaderBytes;
    row_base += info.rows;
    dict_base += info.dict_new;
    out.blocks.push_back(info);
  }
  if (row_base != out.rows || dict_base != out.dict_count) {
    error = "index totals disagree with footer";
    return false;
  }
  return true;
}

[[noreturn]] void fail_open(const std::string& path, const std::string& why) {
  throw std::runtime_error("colfmt " + path + ": " + why);
}

}  // namespace

std::string_view page_name(std::size_t page) noexcept {
  return page < kPageCount ? kPageNames[page] : "?";
}

bool looks_like_container(std::string_view bytes) noexcept {
  return bytes.size() >= kMagic.size() &&
         bytes.substr(0, kMagic.size()) == kMagic;
}

bool file_looks_like_container(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char head[8] = {};
  in.read(head, sizeof head);
  return in.gcount() == static_cast<std::streamsize>(kMagic.size()) &&
         looks_like_container(std::string_view(head, sizeof head));
}

// ---------------------------------------------------------------------------
// Writer

struct Writer::BlockBuilder {
  std::array<std::string, kPageCount> pages;
  std::uint32_t rows = 0;
  std::uint32_t dict_new = 0;
  std::int64_t prev_time = 0;
};

Writer::Writer(std::string path, WriterOptions options)
    : out_(std::make_unique<util::AtomicFileWriter>(std::move(path),
                                                    options.vfs)),
      options_(options) {
  if (options_.block_rows == 0)
    throw std::invalid_argument("colfmt: block_rows must be positive");
  out_->write(kMagic);
}

Writer::~Writer() = default;

void Writer::add(const proxy::LogRecordView& record) {
  if (finished_) throw std::logic_error("colfmt: add() after finish()");
  if (record.proxy_index > kMaxProxyIndex)
    throw std::invalid_argument("colfmt: proxy index out of range");
  if (!block_) block_ = std::make_unique<BlockBuilder>();
  BlockBuilder& b = *block_;

  const auto intern = [&](std::string_view text) -> std::uint32_t {
    const std::size_t known = dict_.size();
    const std::uint32_t id = dict_.intern(text);
    if (dict_.size() == known) return id;
    if (id != known) throw std::runtime_error("colfmt: dictionary overflow");
    put_varint(b.pages[kPageDict], text.size());
    b.pages[kPageDict].append(text);
    ++b.dict_new;
    return id;
  };

  if (b.rows == 0)
    put_varint_signed(b.pages[kPageTime], record.time);
  else
    put_varint_signed(b.pages[kPageTime], record.time - b.prev_time);
  b.prev_time = record.time;

  b.pages[kPageProxy].push_back(static_cast<char>(record.proxy_index));
  put_varint(b.pages[kPageUserHash], record.user_hash);
  put_varint(b.pages[kPageMethod], intern(record.method));
  b.pages[kPageScheme].push_back(
      static_cast<char>(static_cast<std::uint8_t>(record.scheme)));
  put_varint(b.pages[kPageHost], intern(record.host));
  put_varint(b.pages[kPagePort], record.port);
  put_varint(b.pages[kPagePath], intern(record.path));
  put_varint(b.pages[kPageQuery], intern(record.query));
  put_varint(b.pages[kPageAgent], intern(record.user_agent));
  put_varint(b.pages[kPageCategories], intern(record.categories));
  put_varint(b.pages[kPageStatus], record.status);
  b.pages[kPageFilterResult].push_back(
      static_cast<char>(static_cast<std::uint8_t>(record.filter_result)));
  b.pages[kPageException].push_back(
      static_cast<char>(static_cast<std::uint8_t>(record.exception)));
  put_varint(b.pages[kPageDestIp],
             record.dest_ip ? std::uint64_t{record.dest_ip->value()} + 1 : 0);

  ++b.rows;
  ++rows_;
  if (b.rows >= options_.block_rows) flush_block();
}

void Writer::flush_block() {
  BlockBuilder& b = *block_;
  put_u64(index_, out_->bytes_written());
  put_u32(index_, b.rows);
  put_u32(index_, b.dict_new);

  std::string header;
  header.reserve(kBlockHeaderBytes);
  put_u32(header, kBlockMagic);
  put_u32(header, b.rows);
  put_u32(header, b.dict_new);
  put_u32(header, util::crc32_of(header));
  out_->write(header);
  for (std::size_t page = 0; page < kPageCount; ++page) {
    std::string page_header;
    put_u32(page_header, static_cast<std::uint32_t>(b.pages[page].size()));
    put_u32(page_header, util::crc32_of(b.pages[page]));
    out_->write(page_header);
    out_->write(b.pages[page]);
  }
  ++block_count_;
  block_.reset();
}

util::ArtifactInfo Writer::finish() {
  if (finished_) throw std::logic_error("colfmt: finish() called twice");
  finished_ = true;
  if (block_ && block_->rows > 0) flush_block();
  block_.reset();

  const std::uint64_t index_offset = out_->bytes_written();
  out_->write(index_);

  std::string footer;
  footer.reserve(kFooterBytes);
  put_u64(footer, index_offset);
  put_u64(footer, block_count_);
  put_u64(footer, rows_);
  put_u64(footer, dict_.size());
  put_u64(footer, util::crc32_of(index_));
  put_u64(footer, kVersion);
  put_u32(footer, util::crc32_of(footer));
  footer.append(kMagic);
  out_->write(footer);
  return out_->commit();
}

void Writer::abandon() noexcept { out_->abandon(); }

// ---------------------------------------------------------------------------
// Reader

Reader Reader::open(const std::string& path) {
  Reader reader;
  reader.map_ = util::MappedFile::open(path);
  const auto file = reader.map_.bytes();
  if (!looks_like_container(file)) fail_open(path, "not a SYRCOL1 container");

  FooterParse footer;
  std::string error;
  if (!parse_footer(file, footer, error)) fail_open(path, error);

  reader.blocks_ = std::move(footer.blocks);
  reader.rows_ = footer.rows;
  reader.dict_.reserve(static_cast<std::size_t>(footer.dict_count));
  reader.dict_.push_back(std::string_view{});  // id 0 = ""
  std::uint64_t expected = kMagic.size();
  for (std::size_t i = 0; i < reader.blocks_.size(); ++i) {
    const BlockInfo& info = reader.blocks_[i];
    if (info.offset != expected)
      fail_open(path, "block " + std::to_string(i) +
                          " is not where the index says");
    BlockFrame frame;
    if (!parse_block_frame(file, info.offset, footer.index_offset, frame,
                           error, /*check_page_crc=*/false))
      fail_open(path, "block " + std::to_string(i) + ": " + error);
    if (frame.rows != info.rows || frame.dict_new != info.dict_new)
      fail_open(path, "block " + std::to_string(i) +
                          " header disagrees with the index");
    // decode() re-checks column pages; the dictionary is materialized here,
    // so its page must prove itself now.
    if (util::crc32_of(frame.pages[kPageDict]) != frame.page_crc[kPageDict])
      fail_open(path, "block " + std::to_string(i) +
                          ": page checksum mismatch (dict)");
    try {
      parse_dict_page(frame.pages[kPageDict], frame.dict_new, reader.dict_);
    } catch (const std::runtime_error& e) {
      fail_open(path, "block " + std::to_string(i) + ": " + e.what());
    }
    expected = frame.end;
  }
  if (expected != footer.index_offset)
    fail_open(path, "blocks do not end at the index");
  if (reader.dict_.size() != footer.dict_count)
    fail_open(path, "dictionary size disagrees with the footer");
  return reader;
}

Reader Reader::open_lenient(const std::string& path, RecoveryStats* stats) {
  Reader reader;
  reader.map_ = util::MappedFile::open(path);
  const auto file = reader.map_.bytes();
  RecoveryStats local;
  RecoveryStats& s = stats ? *stats : local;
  s = RecoveryStats{};
  s.file_bytes = file.size();
  if (!looks_like_container(file)) fail_open(path, "not a SYRCOL1 container");

  FooterParse footer;
  std::string footer_error;
  const bool footer_parsed = parse_footer(file, footer, footer_error);
  const std::uint64_t limit =
      footer_parsed ? footer.index_offset : file.size();

  reader.dict_.push_back(std::string_view{});
  std::uint64_t cursor = kMagic.size();
  std::string error;
  while (cursor < limit) {
    BlockFrame frame;
    if (!parse_block_frame(file, cursor, limit, frame, error,
                           /*check_page_crc=*/true)) {
      s.damage = "block " + std::to_string(reader.blocks_.size()) + " at " +
                 "offset " + std::to_string(cursor) + ": " + error;
      break;
    }
    try {
      parse_dict_page(frame.pages[kPageDict], frame.dict_new, reader.dict_);
    } catch (const std::runtime_error& e) {
      s.damage = "block " + std::to_string(reader.blocks_.size()) + ": " +
                 e.what();
      break;
    }
    BlockInfo info;
    info.offset = cursor;
    info.rows = frame.rows;
    info.dict_new = frame.dict_new;
    info.row_base = reader.rows_;
    info.dict_base = reader.dict_.size() - frame.dict_new;
    reader.blocks_.push_back(info);
    reader.rows_ += frame.rows;
    cursor = frame.end;
  }

  s.blocks_recovered = reader.blocks_.size();
  s.rows_recovered = reader.rows_;
  s.bytes_recovered = cursor;
  const bool scan_clean = s.damage.empty() && cursor == limit;
  s.footer_ok = footer_parsed && scan_clean &&
                reader.blocks_.size() == footer.blocks.size() &&
                reader.rows_ == footer.rows &&
                reader.dict_.size() == footer.dict_count;
  if (s.footer_ok) {
    s.bytes_recovered = file.size();
  } else {
    s.truncated_tail = true;
    if (s.damage.empty())
      s.damage = footer_parsed ? "blocks disagree with the footer"
                               : footer_error;
  }
  return reader;
}

DecodedBlock Reader::decode(std::size_t block_index) const {
  const BlockInfo& info = blocks_.at(block_index);
  const auto file = map_.bytes();
  // Every failure names the block, and the page when one is to blame.
  const std::string where = "colfmt " + map_.path() + ": block " +
                            std::to_string(block_index) + ": ";
  const auto page_context = [&](Page page) {
    return where + std::string(kPageNames[page]) + " page";
  };
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(where + what);
  };
  const auto fail_page = [&](Page page, const char* what) {
    throw std::runtime_error(page_context(page) + ": " + what);
  };

  BlockFrame frame;
  std::string error;
  // The block is self-delimiting; its pages may extend to wherever the
  // next block (or the index) begins, so the whole file is the limit.
  if (!parse_block_frame(file, info.offset, file.size(), frame, error,
                         /*check_page_crc=*/true))
    fail(error);
  if (frame.rows != info.rows) fail("row count changed under the reader");

  DecodedBlock block;
  const std::size_t rows = info.rows;
  block.rows = rows;
  block.row_base = info.row_base;
  // Ids minted in this block or any earlier one are valid; later ones are
  // evidence of damage the CRC happened to miss (or an adversarial file).
  const std::uint64_t dict_limit = info.dict_base + info.dict_new;

  // Feeds page `page`'s varints to `read`, checking the page is used up.
  const auto varints = [&](Page page, const auto& read) {
    const std::string context = page_context(page);
    VarintReader in(frame.pages[page], context.c_str());
    for (std::size_t i = 0; i < rows; ++i) read(i, in.get());
    in.expect_end();
  };

  // Raw pages first: each holds exactly one byte per row, so the header's
  // row count is bounded by the file before any column is sized by it.
  const auto raw_u8 = [&](Page page, std::vector<std::uint8_t>& out,
                          std::uint8_t max_value) {
    const auto payload = frame.pages[page];
    if (payload.size() != rows)
      fail_page(page, "raw page has wrong row count");
    out.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const auto v = static_cast<std::uint8_t>(payload[i]);
      if (v > max_value) fail_page(page, "enum value out of range");
      out[i] = v;
    }
  };
  raw_u8(kPageProxy, block.proxy_index, kMaxProxyIndex);
  raw_u8(kPageScheme, block.scheme,
         static_cast<std::uint8_t>(net::Scheme::kTcp));
  raw_u8(kPageFilterResult, block.filter_result,
         static_cast<std::uint8_t>(proxy::FilterResult::kDenied));
  raw_u8(kPageException, block.exception,
         static_cast<std::uint8_t>(proxy::kExceptionCount - 1));

  block.time.resize(rows);
  varints(kPageTime, [&](std::size_t i, std::uint64_t v) {
    // First value absolute, then deltas; summed unsigned so a crafted
    // page wraps instead of overflowing.
    const std::uint64_t prev =
        i == 0 ? 0 : static_cast<std::uint64_t>(block.time[i - 1]);
    block.time[i] = static_cast<std::int64_t>(
        prev + static_cast<std::uint64_t>(unzigzag(v)));
  });

  block.user_hash.resize(rows);
  varints(kPageUserHash,
          [&](std::size_t i, std::uint64_t v) { block.user_hash[i] = v; });

  const auto dict_column = [&](Page page, std::vector<std::uint32_t>& out) {
    out.resize(rows);
    varints(page, [&](std::size_t i, std::uint64_t id) {
      if (id >= dict_limit) fail_page(page, "dictionary id out of range");
      out[i] = static_cast<std::uint32_t>(id);
    });
  };
  dict_column(kPageMethod, block.method);
  dict_column(kPageHost, block.host);
  dict_column(kPagePath, block.path);
  dict_column(kPageQuery, block.query);
  dict_column(kPageAgent, block.agent);
  dict_column(kPageCategories, block.categories);

  const auto u16_column = [&](Page page, std::vector<std::uint16_t>& out) {
    out.resize(rows);
    varints(page, [&](std::size_t i, std::uint64_t v) {
      if (v > 0xFFFF) fail_page(page, "16-bit value out of range");
      out[i] = static_cast<std::uint16_t>(v);
    });
  };
  u16_column(kPagePort, block.port);
  u16_column(kPageStatus, block.status);

  block.dest_ip.resize(rows);
  block.has_dest.resize(rows);
  varints(kPageDestIp, [&](std::size_t i, std::uint64_t v) {
    // 0 = no r-ip, else the address + 1.
    if (v != 0 && v - 1 > 0xFFFFFFFFull)
      fail_page(kPageDestIp, "destination ip out of range");
    block.has_dest[i] = v != 0 ? 1 : 0;
    block.dest_ip[i] = v != 0 ? static_cast<std::uint32_t>(v - 1) : 0;
  });
  return block;
}

void Reader::release_columns(std::size_t block_index) const noexcept {
  const BlockInfo& info = blocks_[block_index];
  // The dict page comes first; open() framed it, so its size is sound.
  const std::uint64_t columns =
      info.offset + kBlockHeaderBytes + kPageHeaderBytes +
      get_u32(map_.bytes().data() + info.offset + kBlockHeaderBytes);
  const std::uint64_t end = block_index + 1 < blocks_.size()
                                ? blocks_[block_index + 1].offset
                                : map_.size();
  map_.release(static_cast<std::size_t>(columns),
               static_cast<std::size_t>(end - columns));
}

proxy::LogRecordView Reader::record_view(const DecodedBlock& block,
                                         std::size_t row) const {
  proxy::LogRecordView r;
  r.time = block.time.at(row);
  r.proxy_index = block.proxy_index[row];
  r.user_hash = block.user_hash[row];
  r.user_agent = view(block.agent[row]);
  r.method = view(block.method[row]);
  r.scheme = static_cast<net::Scheme>(block.scheme[row]);
  r.host = view(block.host[row]);
  r.port = block.port[row];
  r.path = view(block.path[row]);
  r.query = view(block.query[row]);
  r.categories = view(block.categories[row]);
  r.filter_result = static_cast<proxy::FilterResult>(block.filter_result[row]);
  r.exception = static_cast<proxy::ExceptionId>(block.exception[row]);
  r.status = block.status[row];
  if (block.has_dest[row]) r.dest_ip = net::Ipv4Addr(block.dest_ip[row]);
  return r;
}

proxy::LogRecord Reader::record(const DecodedBlock& block,
                                std::size_t row) const {
  proxy::LogRecord r;
  proxy::assign(r, record_view(block, row));
  return r;
}

// ---------------------------------------------------------------------------
// verify_file

VerifyReport verify_file(const std::string& path) {
  VerifyReport report;
  const auto map = util::MappedFile::open(path);
  const auto file = map.bytes();
  if (!looks_like_container(file)) {
    report.first_error = "not a SYRCOL1 container";
    return report;
  }

  FooterParse footer;
  std::string error;
  report.footer_ok = parse_footer(file, footer, error);
  if (!report.footer_ok) report.first_error = "footer: " + error;
  const std::uint64_t limit =
      report.footer_ok ? footer.index_offset : file.size();

  const auto note = [&](std::uint64_t block, const std::string& why) {
    if (report.first_error.empty())
      report.first_error = "block " + std::to_string(block) + ": " + why;
  };

  std::uint64_t cursor = kMagic.size();
  bool structure_complete = true;
  while (cursor < limit) {
    BlockFrame frame;
    // Structure first (no CRCs) so one bad page doesn't hide the pages
    // after it; then each page is judged on its own checksum.
    if (!parse_block_frame(file, cursor, limit, frame, error,
                           /*check_page_crc=*/false)) {
      note(report.blocks, error);
      structure_complete = false;
      break;
    }
    for (std::size_t page = 0; page < kPageCount; ++page) {
      ++report.pages_checked;
      if (util::crc32_of(frame.pages[page]) != frame.page_crc[page]) {
        ++report.bad_pages;
        note(report.blocks, "page checksum mismatch (" +
                                std::string(kPageNames[page]) + ")");
      }
    }
    ++report.blocks;
    report.rows += frame.rows;
    cursor = frame.end;
  }

  report.ok = report.footer_ok && structure_complete &&
              report.bad_pages == 0 && cursor == limit &&
              report.blocks == footer.blocks.size() &&
              report.rows == footer.rows;
  if (!report.ok && report.first_error.empty())
    report.first_error = "blocks disagree with the footer";
  return report;
}

}  // namespace syrwatch::colfmt
