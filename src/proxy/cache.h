#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "proxy/exception.h"

namespace syrwatch::proxy {

/// LRU + TTL response cache ("bandwidth gain profile", §3.2).
///
/// Entries remember the decision taken when the URL was first processed.
/// A hit is logged as PROXIED and replays the stored exception — which is
/// how the leak ends up with PROXIED records for censored domains
/// (Tables 8/10/13 all report small proxied counts next to fully censored
/// domains). Bounded LRU plus entry expiry keep the hit rate at the
/// log's sub-percent level even for very hot URLs.
class ResponseCache {
 public:
  /// ttl_seconds == 0 disables expiry.
  ResponseCache(std::size_t capacity, std::int64_t ttl_seconds = 0);

  struct Entry {
    ExceptionId exception = ExceptionId::kNone;
    std::uint16_t status = 200;
    std::int64_t expires_at = 0;  // 0 = never
  };

  /// Lookup at simulation time `now`; a live hit refreshes recency,
  /// an expired entry is dropped and reported as a miss.
  const Entry* find(std::string_view url_key, std::int64_t now) noexcept;

  /// Inserts or refreshes an entry, stamping expiry from `now`, evicting
  /// the least recently used entry when full.
  void admit(std::string_view url_key, Entry entry, std::int64_t now);

  std::size_t size() const noexcept { return map_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Checkpoint support: the full cache content in recency order
  /// (most-recent first) plus the hit/miss tallies. restore(snapshot())
  /// reproduces byte-identical future behaviour — recency order decides
  /// evictions, so the order is part of the state.
  struct SnapshotEntry {
    std::string key;
    Entry entry;
  };
  std::vector<SnapshotEntry> snapshot() const;

  /// Replaces the cache content with a snapshot (most-recent first).
  /// Throws std::invalid_argument when the snapshot exceeds capacity or
  /// repeats a key.
  void restore(const std::vector<SnapshotEntry>& entries, std::uint64_t hits,
               std::uint64_t misses);

 private:
  struct Node {
    std::string key;
    Entry entry;
  };
  std::size_t capacity_;
  std::int64_t ttl_;
  /// Lets map_ be probed with a string_view, without building a key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Node>::iterator, KeyHash,
                     std::equal_to<>>
      map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace syrwatch::proxy
