#include "proxy/cache.h"

#include <functional>
#include <stdexcept>

namespace syrwatch::proxy {

namespace {
constexpr std::size_t kMinIndexSlots = 16;
}

ResponseCache::ResponseCache(std::size_t capacity, std::int64_t ttl_seconds)
    : capacity_(capacity), ttl_(ttl_seconds) {
  if (capacity == 0)
    throw std::invalid_argument("ResponseCache: capacity must be positive");
  // Node ids are 32-bit and kNil is reserved.
  if (capacity >= kNil)
    throw std::invalid_argument("ResponseCache: capacity exceeds 2^32 - 2");
  if (ttl_seconds < 0)
    throw std::invalid_argument("ResponseCache: negative ttl");
}

std::uint64_t ResponseCache::hash_of(std::string_view key) noexcept {
  return std::hash<std::string_view>{}(key);
}

std::uint32_t ResponseCache::find_slot(std::string_view key,
                                       std::uint64_t hash) const noexcept {
  if (index_.empty()) return kNil;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t id = index_[slot];
    if (id == kNil) return kNil;
    const Node& node = nodes_[id];
    if (node.hash == hash && node.key == key)
      return static_cast<std::uint32_t>(slot);
  }
}

std::uint32_t ResponseCache::slot_of(std::uint32_t id) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = nodes_[id].hash & mask;
  while (index_[slot] != id) slot = (slot + 1) & mask;
  return static_cast<std::uint32_t>(slot);
}

void ResponseCache::index_insert(std::uint32_t id) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = nodes_[id].hash & mask;
  while (index_[slot] != kNil) slot = (slot + 1) & mask;
  index_[slot] = id;
}

void ResponseCache::index_erase(std::uint32_t slot) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t next = (hole + 1) & mask;; next = (next + 1) & mask) {
    const std::uint32_t id = index_[next];
    if (id == kNil) break;
    // The member at `next` may fill the hole only if its home slot does
    // not lie cyclically in (hole, next]: otherwise a lookup would start
    // past the hole and never see it there.
    const std::size_t home = nodes_[id].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = id;
      hole = next;
    }
  }
  index_[hole] = kNil;
}

void ResponseCache::reserve_index(std::size_t entries) {
  std::size_t slots = index_.empty() ? kMinIndexSlots : index_.size();
  while (entries * 4 > slots * 3) slots *= 2;
  if (slots == index_.size()) return;
  index_.assign(slots, kNil);
  for (std::uint32_t id = head_; id != kNil; id = nodes_[id].next)
    index_insert(id);
}

void ResponseCache::link_front(std::uint32_t id) noexcept {
  Node& node = nodes_[id];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) nodes_[head_].prev = id;
  head_ = id;
  if (tail_ == kNil) tail_ = id;
}

void ResponseCache::unlink(std::uint32_t id) noexcept {
  Node& node = nodes_[id];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

const ResponseCache::Entry* ResponseCache::find(std::string_view url_key,
                                                std::int64_t now) noexcept {
  const std::uint32_t slot = find_slot(url_key, hash_of(url_key));
  if (slot == kNil) {
    ++misses_;
    return nullptr;
  }
  const std::uint32_t id = index_[slot];
  Node& node = nodes_[id];
  unlink(id);
  if (node.entry.expires_at != 0 && now >= node.entry.expires_at) {
    index_erase(slot);
    node.next = free_;
    free_ = id;
    --size_;
    ++misses_;
    return nullptr;
  }
  ++hits_;
  link_front(id);
  return &node.entry;
}

void ResponseCache::admit(std::string_view url_key, Entry entry,
                          std::int64_t now) {
  if (ttl_ != 0 && entry.expires_at == 0) entry.expires_at = now + ttl_;
  const std::uint64_t hash = hash_of(url_key);
  if (const std::uint32_t slot = find_slot(url_key, hash); slot != kNil) {
    const std::uint32_t id = index_[slot];
    nodes_[id].entry = entry;
    unlink(id);
    link_front(id);
    return;
  }
  std::uint32_t id = 0;
  if (size_ >= capacity_) {
    // Evict the least recent entry and reuse its node, key buffer too.
    id = tail_;
    index_erase(slot_of(id));
    unlink(id);
    --size_;
  } else if (free_ != kNil) {
    id = free_;
    free_ = nodes_[id].next;
  } else {
    id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  reserve_index(size_ + 1);
  Node& node = nodes_[id];
  node.key.assign(url_key);
  node.entry = entry;
  node.hash = hash;
  link_front(id);
  index_insert(id);
  ++size_;
}

std::vector<ResponseCache::SnapshotEntry> ResponseCache::snapshot() const {
  std::vector<SnapshotEntry> entries;
  entries.reserve(size_);
  for_each_recent([&](std::string_view key, const Entry& entry) {
    entries.push_back({std::string(key), entry});
  });
  return entries;
}

void ResponseCache::restore(const std::vector<SnapshotEntry>& entries,
                            std::uint64_t hits, std::uint64_t misses) {
  if (entries.size() > capacity_)
    throw std::invalid_argument("ResponseCache::restore: snapshot larger "
                                "than capacity");
  nodes_.clear();
  index_.clear();
  head_ = tail_ = free_ = kNil;
  size_ = 0;
  nodes_.reserve(entries.size());
  reserve_index(entries.size());
  for (const SnapshotEntry& entry : entries) {
    const std::uint64_t hash = hash_of(entry.key);
    if (find_slot(entry.key, hash) != kNil)
      throw std::invalid_argument("ResponseCache::restore: duplicate key " +
                                  entry.key);
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{entry.key, entry.entry, hash, tail_, kNil});
    if (tail_ != kNil) {
      nodes_[tail_].next = id;
    } else {
      head_ = id;
    }
    tail_ = id;
    index_insert(id);
    ++size_;
  }
  hits_ = hits;
  misses_ = misses;
}

}  // namespace syrwatch::proxy
