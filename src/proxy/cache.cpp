#include "proxy/cache.h"

#include <iterator>
#include <stdexcept>

namespace syrwatch::proxy {

ResponseCache::ResponseCache(std::size_t capacity, std::int64_t ttl_seconds)
    : capacity_(capacity), ttl_(ttl_seconds) {
  if (capacity == 0)
    throw std::invalid_argument("ResponseCache: capacity must be positive");
  if (ttl_seconds < 0)
    throw std::invalid_argument("ResponseCache: negative ttl");
}

const ResponseCache::Entry* ResponseCache::find(std::string_view url_key,
                                                std::int64_t now) noexcept {
  const auto it = map_.find(url_key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  const Entry& entry = it->second->entry;
  if (entry.expires_at != 0 && now >= entry.expires_at) {
    lru_.erase(it->second);
    map_.erase(it);
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->entry;
}

void ResponseCache::admit(std::string_view url_key, Entry entry,
                          std::int64_t now) {
  if (ttl_ != 0 && entry.expires_at == 0) entry.expires_at = now + ttl_;
  const auto it = map_.find(url_key);
  if (it != map_.end()) {
    it->second->entry = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Node{std::string(url_key), entry});
  map_.emplace(lru_.front().key, lru_.begin());
}

std::vector<ResponseCache::SnapshotEntry> ResponseCache::snapshot() const {
  std::vector<SnapshotEntry> entries;
  entries.reserve(lru_.size());
  for (const Node& node : lru_) entries.push_back({node.key, node.entry});
  return entries;
}

void ResponseCache::restore(const std::vector<SnapshotEntry>& entries,
                            std::uint64_t hits, std::uint64_t misses) {
  if (entries.size() > capacity_)
    throw std::invalid_argument("ResponseCache::restore: snapshot larger "
                                "than capacity");
  lru_.clear();
  map_.clear();
  for (const SnapshotEntry& entry : entries) {
    lru_.push_back(Node{entry.key, entry.entry});
    const auto [it, inserted] =
        map_.emplace(lru_.back().key, std::prev(lru_.end()));
    (void)it;
    if (!inserted)
      throw std::invalid_argument("ResponseCache::restore: duplicate key " +
                                  entry.key);
  }
  hits_ = hits;
  misses_ = misses;
}

}  // namespace syrwatch::proxy
