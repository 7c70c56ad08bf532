#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataset.h"
#include "colfmt/container.h"

namespace syrwatch::analysis {

/// A colfmt::Reader plus the per-dictionary-id derived values the
/// analyzers need: registrable domain of every string and its IPv4 parse.
/// Both are resolved once per *dictionary entry* instead of once per row —
/// the columnar counterpart of Dataset's per-host table, immutable after
/// construction and therefore freely shared across scan threads. This is
/// the columnar backend of analysis::LogSource (scan.h); the analyzers
/// themselves are written once against the LogSource cursor.
class ColumnarLog {
 public:
  /// `threads` parallelizes the dictionary precomputation, one grain per
  /// block's dictionary delta (the result is identical for any value).
  explicit ColumnarLog(colfmt::Reader reader, std::size_t threads = 1);

  const colfmt::Reader& reader() const noexcept { return reader_; }
  std::uint64_t rows() const noexcept { return reader_.rows(); }
  std::size_t block_count() const noexcept { return reader_.block_count(); }

  /// Registrable domain of dictionary id `host_id` (eTLD+1, same
  /// net::registrable_domain the Dataset path uses).
  std::string_view domain(std::uint32_t host_id) const {
    return domain_by_id_[host_id];
  }

  /// Dotted-quad parse of the dictionary string, when it is one.
  bool host_is_ip(std::uint32_t host_id) const noexcept {
    return is_ip_[host_id] != 0;
  }
  std::uint32_t host_ip(std::uint32_t host_id) const noexcept {
    return ip_by_id_[host_id];
  }

  /// §3.3 class from the packed outcome columns — Dataset::cls.
  static proxy::TrafficClass cls(std::uint8_t filter_result,
                                 std::uint8_t exception) noexcept {
    if (static_cast<proxy::FilterResult>(filter_result) ==
        proxy::FilterResult::kProxied)
      return proxy::TrafficClass::kProxied;
    return proxy::classify_by_exception(
        static_cast<proxy::FilterResult>(filter_result),
        static_cast<proxy::ExceptionId>(exception));
  }

 private:
  colfmt::Reader reader_;
  std::vector<std::string> domain_by_id_;
  std::vector<std::uint32_t> ip_by_id_;
  std::vector<std::uint8_t> is_ip_;
};

}  // namespace syrwatch::analysis
