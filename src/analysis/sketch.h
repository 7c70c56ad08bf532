#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace syrwatch::analysis {

/// Streaming summaries for the online analysis mode (DESIGN.md §4.12).
/// Each sketch is a bounded-memory substitute for one exact analyzer
/// family, with a *stated* error bound the rolling report prints next to
/// every approximate figure:
///
///   SpaceSaving     top-domains / keyword tables   over-estimate ≤ e.error
///   CountMinSketch  per-category counters          over-estimate ≤ ε·N
///   Reservoir       Dsample (uniform sample)       exact k-of-n uniformity
///   WindowRing      traffic/RCV/Rfilter/coverage   exact within the window
///
/// All four are deterministic: identical update sequences produce
/// identical state (hashes and the reservoir's generator are seeded, never
/// randomized per process), so a replayed log reproduces a live tail
/// bit-for-bit — the property every sketch↔exact test leans on.

/// Metwally et al.'s SpaceSaving heavy-hitters over string keys.
///
/// Holds at most `capacity` counters. While distinct keys fit, every
/// count is exact (`exact()` stays true and every error field is 0) — the
/// regime that makes whole-log sketch output byte-identical to the exact
/// top-domains analyzer. Once saturated, the minimum counter is evicted
/// on each new key and its count inherited, so for every tracked key
///
///   true_count  ≤  count  ≤  true_count + error,   error ≤ min_count()
///
/// and any key with true frequency > total()/capacity is guaranteed to be
/// tracked. Eviction picks the minimum of the deterministic total order
/// (count, last-update tick), so saturated contents are a pure function
/// of the update sequence.
class SpaceSaving {
 public:
  struct Item {
    std::string key;
    std::uint64_t count = 0;  ///< estimate; an upper bound on the truth
    std::uint64_t error = 0;  ///< max over-estimate inherited at eviction
  };

  explicit SpaceSaving(std::size_t capacity);

  void update(std::string_view key, std::uint64_t weight = 1);

  /// The k heaviest tracked keys ranked exactly like the exact analyzers
  /// rank theirs: count descending, then key ascending. Fewer than k when
  /// fewer keys are tracked.
  std::vector<Item> top(std::size_t k) const;

  /// No eviction has happened: every tracked count is exact and every key
  /// ever updated is still tracked.
  bool exact() const noexcept { return !evicted_; }

  /// Smallest tracked count — the count any *untracked* key is bounded
  /// by, and the largest possible over-estimate of a tracked one. 0 while
  /// the sketch is exact.
  std::uint64_t min_count() const noexcept;

  std::uint64_t total() const noexcept { return total_; }
  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  double fill() const noexcept {
    return capacity_ == 0 ? 0.0
                          : static_cast<double>(entries_.size()) /
                                static_cast<double>(capacity_);
  }

 private:
  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint64_t tick = 0;  // last-update ordinal: unique ⇒ total order
  };

  bool less(std::uint32_t a, std::uint32_t b) const noexcept;
  void sift_up(std::size_t slot);
  void sift_down(std::size_t slot);

  std::size_t capacity_;
  std::vector<Entry> entries_;      // stable: reserved once, never shrunk
  std::vector<std::uint32_t> heap_;  // entry indices, min at heap_[0]
  std::vector<std::uint32_t> pos_;   // entry index -> heap slot
  std::unordered_map<std::string_view, std::uint32_t> index_;
  std::uint64_t total_ = 0;
  std::uint64_t tick_ = 0;
  bool evicted_ = false;
};

/// Cormode & Muthukrishnan's Count-Min sketch over string keys.
///
/// depth × width counters; estimate(key) never under-counts, and
/// over-counts by more than ε·total() with probability at most δ, where
/// ε = e/width and δ = e^-depth. Row hashes derive deterministically from
/// the seed, so two sketches with equal parameters fed the same updates
/// are bit-identical.
class CountMinSketch {
 public:
  CountMinSketch(std::size_t width, std::size_t depth,
                 std::uint64_t seed = 0);

  void update(std::string_view key, std::uint64_t weight = 1);
  std::uint64_t estimate(std::string_view key) const;

  std::uint64_t total() const noexcept { return total_; }
  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }
  /// ε: estimate ≤ truth + ε·total() with probability ≥ 1 − δ.
  double epsilon() const noexcept;
  double delta() const noexcept;
  /// The additive bound ε·total() in request units.
  double error_bound() const noexcept;
  /// Fraction of non-zero counters — the saturation gauge obs exports.
  double fill() const noexcept;

 private:
  std::size_t bucket(std::size_t row, std::string_view key) const noexcept;

  std::size_t width_;
  std::size_t depth_;
  std::vector<std::uint64_t> rows_;   // depth × width, row-major
  std::vector<std::uint64_t> seeds_;  // per-row hash stream
  std::uint64_t total_ = 0;
};

/// Vitter's Algorithm R: a uniform k-of-n sample maintained in one pass.
/// Every offered item ends up in the sample with probability k/n exactly;
/// the draw sequence comes from a seeded util::Rng, so the sample is a
/// deterministic function of (seed, offer sequence) — the streaming
/// stand-in for Dsample's Bernoulli derivation.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void offer(const T& item) {
    if (capacity_ == 0) {
      ++seen_;
      return;
    }
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    const std::uint64_t j = rng_.uniform(seen_);
    if (j < capacity_) items_[static_cast<std::size_t>(j)] = item;
  }

  const std::vector<T>& items() const noexcept { return items_; }
  std::uint64_t seen() const noexcept { return seen_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  util::Rng rng_;
};

/// Sliding window of `bins` fixed-width time bins, bin-aligned to absolute
/// time (bin index = floor(t / bin_seconds), so two rings with equal
/// parameters agree on boundaries regardless of when they started). Within
/// the window every per-bin payload is *exact*; approximation enters only
/// through eviction, which the ring counts. Records older than the
/// retained window are dropped (and counted) rather than corrupting a
/// recycled slot. A non-positive width or zero bins throws
/// std::invalid_argument.
template <typename Bin>
class WindowRing {
 public:
  WindowRing(std::int64_t bin_seconds, std::size_t bins)
      : bin_seconds_(bin_seconds) {
    if (bin_seconds <= 0 || bins == 0)
      throw std::invalid_argument(
          "WindowRing: bin width and bin count must be positive");
    ring_.resize(bins);
  }

  /// The payload for time `t`, advancing (and evicting) as needed.
  /// nullptr when t falls before the oldest retained bin.
  Bin* at(std::int64_t t) {
    const std::int64_t idx = bin_index(t);
    if (!have_) {
      have_ = true;
      newest_ = idx;
      oldest_ = idx;
      ring_[slot(idx)] = Bin{};
      return &ring_[slot(idx)];
    }
    if (idx > newest_) {
      const auto bins = static_cast<std::int64_t>(ring_.size());
      // Slots entering the window hold data from >= `bins` bins ago.
      const std::int64_t lo = std::max(newest_ + 1, idx - bins + 1);
      for (std::int64_t i = lo; i <= idx; ++i) ring_[slot(i)] = Bin{};
      const std::int64_t new_oldest = std::max(oldest_, idx - bins + 1);
      evicted_ += static_cast<std::uint64_t>(new_oldest - oldest_);
      oldest_ = new_oldest;
      newest_ = idx;
    } else if (idx < oldest_) {
      ++late_drops_;
      return nullptr;
    }
    return &ring_[slot(idx)];
  }

  /// fn(bin_start_time, const Bin&) over every retained bin, oldest
  /// first. Bins the window spans but no record touched are included
  /// (default-constructed), exactly like an exact series' empty bins.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!have_) return;
    for (std::int64_t i = oldest_; i <= newest_; ++i)
      fn(i * bin_seconds_, ring_[slot(i)]);
  }

  bool empty() const noexcept { return !have_; }
  std::int64_t bin_seconds() const noexcept { return bin_seconds_; }
  std::size_t bins() const noexcept { return ring_.size(); }
  /// Retained bins (<= bins()).
  std::size_t active_bins() const noexcept {
    return have_ ? static_cast<std::size_t>(newest_ - oldest_ + 1) : 0;
  }
  /// Start time of the oldest retained bin. Meaningless while empty().
  std::int64_t window_start() const noexcept { return oldest_ * bin_seconds_; }
  /// End time (exclusive) of the newest bin. Meaningless while empty().
  std::int64_t window_end() const noexcept {
    return (newest_ + 1) * bin_seconds_;
  }
  std::uint64_t evicted_bins() const noexcept { return evicted_; }
  std::uint64_t late_drops() const noexcept { return late_drops_; }
  double fill() const noexcept {
    return ring_.empty() ? 0.0
                         : static_cast<double>(active_bins()) /
                               static_cast<double>(ring_.size());
  }

 private:
  std::int64_t bin_index(std::int64_t t) const noexcept {
    // Floor division, correct for pre-epoch times too.
    return t >= 0 ? t / bin_seconds_
                  : -((-t + bin_seconds_ - 1) / bin_seconds_);
  }
  std::size_t slot(std::int64_t idx) const noexcept {
    const auto bins = static_cast<std::int64_t>(ring_.size());
    return static_cast<std::size_t>(((idx % bins) + bins) % bins);
  }

  std::int64_t bin_seconds_;
  std::vector<Bin> ring_;
  std::int64_t oldest_ = 0;
  std::int64_t newest_ = 0;
  bool have_ = false;
  std::uint64_t evicted_ = 0;
  std::uint64_t late_drops_ = 0;
};

}  // namespace syrwatch::analysis
