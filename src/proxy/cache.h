#pragma once

#include <cstdint>
#include <string>
#include <string_view>
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
///
/// Layout (DESIGN.md §4.17): entries live in a slab of nodes linked into
/// the recency list by 32-bit ids, and an open-addressing index of node
/// ids (linear probing, backward-shift deletion, at most 3/4 full) finds
/// them by key. An entry costs one key allocation and no list or map
/// node; an evicted node is reused in place, key buffer included. The
/// index hash decides speed only: recency order, and so every eviction
/// and snapshot, depends on the operation sequence alone.
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
  /// an expired entry is dropped and reported as a miss. The returned
  /// entry is valid until the next admit() or restore().
  const Entry* find(std::string_view url_key, std::int64_t now) noexcept;

  /// Inserts or refreshes an entry, stamping expiry from `now`, evicting
  /// the least recently used entry when full.
  void admit(std::string_view url_key, Entry entry, std::int64_t now);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Calls fn(key, entry) for every entry, most-recent first — the order
  /// snapshot() returns, without copying a key.
  template <typename Fn>
  void for_each_recent(Fn&& fn) const {
    for (std::uint32_t id = head_; id != kNil; id = nodes_[id].next)
      fn(std::string_view{nodes_[id].key}, nodes_[id].entry);
  }

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
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::string key;
    Entry entry;
    std::uint64_t hash = 0;
    std::uint32_t prev = kNil;  ///< toward the most recent; free: unused
    std::uint32_t next = kNil;  ///< toward the least recent; free: next free
  };

  static std::uint64_t hash_of(std::string_view key) noexcept;
  /// The index slot holding `key`, or kNil.
  std::uint32_t find_slot(std::string_view key,
                          std::uint64_t hash) const noexcept;
  /// The index slot holding node `id` (which must be indexed).
  std::uint32_t slot_of(std::uint32_t id) const noexcept;
  /// Places node `id` in the index; the caller ensures room.
  void index_insert(std::uint32_t id) noexcept;
  /// Empties `slot`, shifting later members of its probe run back so
  /// that no lookup ever stops short at the hole.
  void index_erase(std::uint32_t slot) noexcept;
  /// Doubles the index until `entries` fit at 3/4 load, reindexing.
  void reserve_index(std::size_t entries);
  void link_front(std::uint32_t id) noexcept;
  void unlink(std::uint32_t id) noexcept;

  std::size_t capacity_;
  std::int64_t ttl_;
  std::vector<Node> nodes_;          ///< the slab
  std::vector<std::uint32_t> index_;  ///< node ids; kNil = empty slot
  std::uint32_t head_ = kNil;        ///< most recent
  std::uint32_t tail_ = kNil;        ///< least recent: the next eviction
  std::uint32_t free_ = kNil;        ///< slab nodes freed by expiry
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace syrwatch::proxy
