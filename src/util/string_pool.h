#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace syrwatch::util {

/// Interning pool mapping strings to dense 32-bit ids.
///
/// The analysis datasets hold millions of log records whose host / path /
/// query / user-agent fields repeat heavily; interning turns each record
/// into a handful of integers. Id 0 is reserved for the empty string, so a
/// default-constructed id renders as "" (the logs' '-' placeholder).
class StringPool {
 public:
  using Id = std::uint32_t;
  static constexpr Id kEmpty = 0;

  StringPool();

  /// Returns the id for `s`, interning it on first sight.
  Id intern(std::string_view s);

  /// Returns the id if present, kEmpty's sentinel semantics do not apply —
  /// absent strings yield std::nullopt-like kNotFound.
  static constexpr Id kNotFound = ~Id{0};
  Id lookup(std::string_view s) const noexcept;

  /// The interned string; views stay valid for the pool's lifetime.
  std::string_view view(Id id) const;

  /// Every interned string, indexed by id: the unchecked id → text table
  /// the scan layer reads. The views stay valid for the pool's lifetime;
  /// the vector itself grows (and may move) with intern().
  const std::vector<std::string_view>& views() const noexcept {
    return views_;
  }

  std::size_t size() const noexcept { return views_.size(); }

 private:
  /// Copies `s` into the arena and returns the copy.
  std::string_view store(std::string_view s);

  /// Where `s` (hashing to `hash`) sits in index_, or the empty slot it
  /// would take.
  std::size_t find_slot(std::string_view s, std::uint32_t hash) const noexcept;
  /// Doubles index_, re-placing every id by its stored hash.
  void grow();

  // The bytes live in an arena of blocks that never move, so the views
  // stay valid as the pool grows, at no per-string allocation.
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* free_ = nullptr;  ///< next unused byte of the last block
  std::size_t left_ = 0;  ///< unused bytes after free_
  std::vector<std::string_view> views_;
  /// Flat open-addressing index over views_: linear probing in a
  /// power-of-two table kept at most 3/4 full, each slot an id and its
  /// string's hash (kNotFound marks an empty slot) — 8 bytes per slot and
  /// no allocation per string.
  struct Slot {
    Id id;
    std::uint32_t hash;
  };
  std::vector<Slot> index_;
};

}  // namespace syrwatch::util
