#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "colfmt/container.h"
#include "proxy/log_record.h"
#include "util/string_pool.h"

namespace syrwatch::analysis {

/// The one in-memory log layout (DESIGN.md §4.11): rows in
/// colfmt::DecodedBlock chunks, string columns as ids into one id → text
/// table, and per-host values (registrable domain, IPv4 parse) resolved
/// once per distinct host id. Two classes fill it — Dataset by add(),
/// ColumnarLog by decoding a SYRCOL1 container at open — and LogSource
/// reads both through one adapter. Ids are validated before they enter a
/// chunk (by the pool that minted them, or by colfmt::Reader::decode), so
/// text() and host() index without bounds checks.
///
/// Distinct hosts get dense slots and registrable domains dense ids, both
/// in first-seen row order (domain id 0 is the empty domain), so analyzers
/// can decide per host instead of per row and key partials by id. Like
/// every id, they never reach output.
class ColumnStore {
 public:
  /// Derived values of one host string.
  struct HostInfo {
    std::string_view name;        ///< the host itself
    std::string_view domain;      ///< registrable domain (eTLD+1)
    std::uint32_t domain_id = 0;  ///< `domain`'s dense id in this store
    std::uint32_t ip = 0;         ///< dotted-quad parse, valid when is_ip
    bool is_ip = false;
  };

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  std::uint64_t rows() const noexcept { return rows_; }
  /// Chunks in row order; chunk c holds ordinals [row_base, row_base+rows).
  const std::vector<colfmt::DecodedBlock>& chunks() const noexcept {
    return chunks_;
  }
  std::string_view text(std::uint32_t id) const noexcept {
    return (*strings_)[id];
  }
  /// Entries of the id → text table.
  std::size_t text_count() const noexcept { return strings_->size(); }
  /// Precondition: `id` occurs in some chunk's host column.
  const HostInfo& host(std::uint32_t id) const noexcept {
    return hosts_[host_slot_[id]];
  }
  /// Host id → dense slot. Precondition: as for host().
  std::uint32_t host_slot(std::uint32_t id) const noexcept {
    return host_slot_[id];
  }
  /// Distinct hosts; slots are [0, host_count()).
  std::size_t host_count() const noexcept { return hosts_.size(); }
  const HostInfo& host_at(std::size_t slot) const noexcept {
    return hosts_[slot];
  }
  /// Distinct registrable domains; ids are [0, domain_count()).
  std::size_t domain_count() const noexcept { return domains_.size(); }
  std::string_view domain(std::uint32_t domain_id) const noexcept {
    return domains_.views()[domain_id];
  }
  /// Min/max timestamps over every row (rows are in arrival order, only
  /// approximately time-sorted). Meaningless while empty.
  std::int64_t first_time() const noexcept { return first_time_; }
  std::int64_t last_time() const noexcept { return last_time_; }

 protected:
  ColumnStore() = default;
  ColumnStore(ColumnStore&&) = default;

  /// Resolves host `id` on first sight: one IPv4 parse, one registrable
  /// domain, a new slot.
  void resolve_host(std::uint32_t id);
  void note_time(std::int64_t time) noexcept {
    if (rows_ == 0 || time < first_time_) first_time_ = time;
    if (rows_ == 0 || time > last_time_) last_time_ = time;
  }

  std::vector<colfmt::DecodedBlock> chunks_;
  /// Id → text; owned by the subclass (its pool or its reader).
  const std::vector<std::string_view>* strings_ = nullptr;
  std::uint64_t rows_ = 0;

 private:
  static constexpr std::uint32_t kNoHost = ~std::uint32_t{0};
  std::vector<std::uint32_t> host_slot_;  ///< id → index into hosts_
  std::vector<HostInfo> hosts_;
  util::StringPool domains_;  ///< domain id → text
  std::string scratch_;       ///< resolve_host's lower-casing buffer
  std::int64_t first_time_ = 0;
  std::int64_t last_time_ = 0;
};

/// The in-memory log: an append-only column store over one StringPool,
/// kept in arrival order. CSV loads, Study runs and spool tails all fill
/// one. The paper's derived datasets (Table 1) are
/// analysis::derive_sources views over it, not copies. add() and reads
/// must not overlap.
class Dataset : public ColumnStore {
 public:
  /// Rows per chunk — the scan layer's partitions, fixed so the partial
  /// sequence an analyzer folds is the same for every thread count.
  static constexpr std::size_t kChunkRows = 64 * 1024;

  Dataset();

  /// Appends one row, interning its strings straight from the views.
  void add(const proxy::LogRecordView& record);
  void add(const proxy::LogRecord& record) { add(proxy::view_of(record)); }

  std::size_t size() const noexcept { return rows_; }

 private:
  std::unique_ptr<util::StringPool> pool_;
};

}  // namespace syrwatch::analysis
