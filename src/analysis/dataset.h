#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/url.h"
#include "proxy/log_record.h"
#include "util/string_pool.h"

namespace syrwatch::analysis {

/// One log record in columnar/interned form (~56 bytes). Host, path,
/// query, agent, category and method strings live in the dataset's
/// StringPool, so millions of records fit comfortably in memory.
struct Row {
  std::int64_t time = 0;
  std::uint64_t user_hash = 0;
  util::StringPool::Id host = util::StringPool::kEmpty;
  util::StringPool::Id path = util::StringPool::kEmpty;
  util::StringPool::Id query = util::StringPool::kEmpty;
  util::StringPool::Id agent = util::StringPool::kEmpty;
  util::StringPool::Id categories = util::StringPool::kEmpty;
  util::StringPool::Id method = util::StringPool::kEmpty;
  std::uint32_t dest_ip = 0;
  std::uint16_t port = 0;
  std::uint16_t status = 0;
  std::uint8_t proxy_index = 0;
  net::Scheme scheme = net::Scheme::kHttp;
  proxy::FilterResult result = proxy::FilterResult::kObserved;
  proxy::ExceptionId exception = proxy::ExceptionId::kNone;
  bool has_dest_ip = false;
};

/// The in-memory log: an append-only Row vector over one StringPool, kept
/// in arrival order. CSV loads, Study runs and spool tails all fill one.
/// The paper's derived datasets (Table 1) are analysis::derive_sources
/// views over it, not copies.
///
/// Per-host derived values (registrable domain, IPv4 parse) are resolved
/// at add(), once per distinct host, so every accessor is a pure read and
/// concurrent scans need no warm-up. add() and reads must not overlap.
class Dataset {
 public:
  Dataset();

  void add(const proxy::LogRecord& record);

  std::size_t size() const noexcept { return rows_.size(); }
  const std::vector<Row>& rows() const noexcept { return rows_; }

  std::string_view view(util::StringPool::Id id) const {
    return pool_->view(id);
  }
  std::string_view host(const Row& row) const { return view(row.host); }
  std::string_view path(const Row& row) const { return view(row.path); }
  std::string_view query(const Row& row) const { return view(row.query); }

  /// Registrable domain of the row's host (eTLD+1).
  std::string_view domain(const Row& row) const {
    return view(hosts_[row.host].domain);
  }

  /// Dotted-quad parse of the row's host. The columnar backend
  /// precomputes the identical values per dictionary id, so the scan
  /// layer sees one surface.
  bool host_is_ip(const Row& row) const noexcept {
    return hosts_[row.host].is_ip;
  }
  std::uint32_t host_ip(const Row& row) const noexcept {
    return hosts_[row.host].ip;
  }

  /// §3.3 class of the row.
  proxy::TrafficClass cls(const Row& row) const noexcept {
    if (row.result == proxy::FilterResult::kProxied)
      return proxy::TrafficClass::kProxied;
    return proxy::classify_by_exception(row.result, row.exception);
  }

  /// Min/max timestamps over every row added so far (arrival order is
  /// only approximately time-sorted). Meaningless while empty.
  std::int64_t first_time() const noexcept { return first_time_; }
  std::int64_t last_time() const noexcept { return last_time_; }

 private:
  /// Derived values of one host string.
  struct HostInfo {
    util::StringPool::Id domain = util::StringPool::kNotFound;
    std::uint32_t ip = 0;
    bool is_ip = false;
  };

  void resolve_host(util::StringPool::Id host);

  std::unique_ptr<util::StringPool> pool_;
  std::vector<Row> rows_;
  /// Indexed by pool id; only ids that occur as a host are resolved.
  std::vector<HostInfo> hosts_;
  std::int64_t first_time_ = 0;
  std::int64_t last_time_ = 0;
};

}  // namespace syrwatch::analysis
