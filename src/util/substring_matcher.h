#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace syrwatch::util {

/// Multi-pattern substring search (Aho–Corasick) compiled into a complete
/// DFA, ASCII-case-insensitive: pattern and text bytes are both folded to
/// lower case as they are read, so the text is never copied; every other
/// byte (UTF-8 included) compares exactly. The alphabet is the set of
/// folded bytes the patterns use. A text byte outside it can be part of no
/// match, and its column in every row leads back to the root, so the inner
/// loop has no branch for it: one transition load per byte, plus a flag
/// test that is set only on states where some pattern ends. Read-only once
/// built, so threads may share one.
///
/// Shared by the policy's keyword rules (DESIGN.md §4.16), §5.4
/// discovery's candidate tokens (§4.14) and keyword_weather.
class SubstringMatcher {
 public:
  /// The root state, where every text starts.
  static constexpr std::uint32_t kStart = 0;

  /// No pattern: feed() reports nothing.
  SubstringMatcher() : next_(1, 0), out_begin_{0, 0} {}

  /// Pattern i gets id i. An empty pattern is given its id but never
  /// reported (`icontains` callers, for whom an empty needle matches
  /// everything, handle it themselves). Duplicates are reported each.
  explicit SubstringMatcher(std::span<const std::string> patterns);

  /// Streams `text` from `state` and returns the state after it, so a
  /// match may span consecutive calls: feeding "ab" then "c" finds what
  /// feeding "abc" finds. At each byte where patterns end, calls
  /// on_match(id) once per such pattern, in ascending id order.
  template <typename OnMatch>
  std::uint32_t feed(std::uint32_t state, std::string_view text,
                     OnMatch&& on_match) const {
    const std::uint32_t* next = next_.data();
    for (const char c : text) {
      const std::uint16_t symbol = symbols_[static_cast<unsigned char>(c)];
      state = next[(state & kRowMask) + symbol];
      if (state & kAccepting) [[unlikely]] {
        const std::uint32_t row = (state & kRowMask) / stride_;
        for (std::uint32_t k = out_begin_[row]; k < out_begin_[row + 1]; ++k)
          on_match(out_[k]);
      }
    }
    return state;
  }

 private:
  /// A transition is the target row's offset in next_ (row * stride_),
  /// with this bit set when some pattern ends in the target.
  static constexpr std::uint32_t kAccepting = 0x8000'0000u;
  static constexpr std::uint32_t kRowMask = ~kAccepting;

  /// Byte -> column; 0 is the "outside the alphabet" column.
  std::array<std::uint16_t, 256> symbols_{};
  std::uint32_t stride_ = 1;  ///< columns per row: the alphabet + 1
  std::vector<std::uint32_t> next_;       ///< row offset + column
  std::vector<std::uint32_t> out_begin_;  ///< row -> [begin, end) in out_
  std::vector<std::uint32_t> out_;        ///< pattern ids, ascending per row
};

}  // namespace syrwatch::util
