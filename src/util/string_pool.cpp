#include "util/string_pool.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

namespace syrwatch::util {

namespace {

constexpr std::size_t kInitialSlots = 64;

/// 8 bytes at a time, a multiply and a shift each, then splitmix64's
/// finalizer: the index places slots by the low bits, so they must mix.
std::uint32_t hash_of(std::string_view s) noexcept {
  constexpr std::uint64_t kMul = 0xBF58476D1CE4E5B9ULL;
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ s.size();
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 31;
  }
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  h ^= h >> 30;
  h *= kMul;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

StringPool::StringPool()
    : index_(kInitialSlots, Slot{kNotFound, 0}) {
  views_.emplace_back();  // id 0: empty string
  const std::uint32_t hash = hash_of({});
  index_[find_slot({}, hash)] = {kEmpty, hash};
}

std::string_view StringPool::store(std::string_view s) {
  if (s.size() > left_) {
    const std::size_t bytes = std::max(kBlockBytes, s.size());
    free_ = blocks_.emplace_back(std::make_unique_for_overwrite<char[]>(bytes))
                .get();
    left_ = bytes;
  }
  const std::string_view copy{free_, s.size()};
  std::copy(s.begin(), s.end(), free_);
  free_ += s.size();
  left_ -= s.size();
  return copy;
}

std::size_t StringPool::find_slot(std::string_view s,
                                  std::uint32_t hash) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const Slot& at = index_[slot];
    if (at.id == kNotFound || (at.hash == hash && views_[at.id] == s))
      return slot;
  }
}

void StringPool::grow() {
  const std::vector<Slot> old = std::exchange(
      index_, std::vector<Slot>(index_.size() * 2, Slot{kNotFound, 0}));
  const std::size_t mask = index_.size() - 1;
  for (const Slot& at : old) {
    if (at.id == kNotFound) continue;
    std::size_t slot = at.hash & mask;
    while (index_[slot].id != kNotFound) slot = (slot + 1) & mask;
    index_[slot] = at;
  }
}

StringPool::Id StringPool::intern(std::string_view s) {
  const std::uint32_t hash = hash_of(s);
  const std::size_t slot = find_slot(s, hash);
  if (index_[slot].id != kNotFound) return index_[slot].id;
  const Id id = static_cast<Id>(views_.size());
  views_.push_back(store(s));
  index_[slot] = {id, hash};
  if (views_.size() * 4 > index_.size() * 3) grow();
  return id;
}

StringPool::Id StringPool::lookup(std::string_view s) const noexcept {
  return index_[find_slot(s, hash_of(s))].id;
}

std::string_view StringPool::view(Id id) const {
  if (id >= views_.size()) throw std::out_of_range("StringPool::view");
  return views_[id];
}

}  // namespace syrwatch::util
