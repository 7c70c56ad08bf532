#include "util/substring_matcher.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace syrwatch::util {

SubstringMatcher::SubstringMatcher(std::span<const std::string> patterns) {
  // The alphabet: one column per distinct folded byte, shared by both
  // cases of a letter.
  for (const std::string& pattern : patterns) {
    for (const char c : pattern) {
      const auto b = static_cast<unsigned char>(ascii_lower(c));
      if (symbols_[b] != 0) continue;
      symbols_[b] = static_cast<std::uint16_t>(stride_++);
      if (b >= 'a' && b <= 'z') symbols_[b - 'a' + 'A'] = symbols_[b];
    }
  }

  // The trie, over row numbers until the end. A child is never the root,
  // so 0 marks "no child" until the completion below turns it into a real
  // transition; column 0 stays 0 (the root) in every row.
  std::vector<std::vector<std::uint32_t>> outputs(1);
  std::vector<std::uint32_t> next(stride_, 0);
  for (std::size_t id = 0; id < patterns.size(); ++id) {
    if (patterns[id].empty()) continue;
    std::size_t row = 0;
    for (const char c : patterns[id]) {
      const std::size_t slot =
          row * stride_ + symbols_[static_cast<unsigned char>(c)];
      if (next[slot] == 0) {
        next[slot] = static_cast<std::uint32_t>(outputs.size());
        outputs.emplace_back();
        next.resize(next.size() + stride_, 0);
      }
      row = next[slot];
    }
    outputs[row].push_back(static_cast<std::uint32_t>(id));
  }
  if (next.size() > kRowMask)
    throw std::length_error("SubstringMatcher: patterns too long");

  // Breadth-first completion: a row's failure link is shallower, so its
  // transitions and its output set are final before the row is reached.
  // Each row inherits the outputs of its failure link — the patterns that
  // are proper suffixes of what it has matched.
  std::vector<std::uint32_t> fail(outputs.size(), 0);
  std::vector<std::uint32_t> queue;
  for (std::size_t sym = 1; sym < stride_; ++sym)
    if (next[sym] != 0) queue.push_back(next[sym]);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t row = queue[head];
    const auto& inherited = outputs[fail[row]];
    outputs[row].insert(outputs[row].end(), inherited.begin(),
                        inherited.end());
    std::sort(outputs[row].begin(), outputs[row].end());
    for (std::size_t sym = 1; sym < stride_; ++sym) {
      std::uint32_t& to = next[row * stride_ + sym];
      const std::uint32_t via_fail = next[fail[row] * stride_ + sym];
      if (to == 0) {
        to = via_fail;
      } else {
        fail[to] = via_fail;
        queue.push_back(to);
      }
    }
  }

  // Row numbers become row offsets, flagged when the target accepts.
  next_.resize(next.size());
  for (std::size_t slot = 0; slot < next.size(); ++slot) {
    const std::uint32_t to = next[slot];
    next_[slot] = to * stride_ | (outputs[to].empty() ? 0 : kAccepting);
  }
  out_begin_.push_back(0);
  for (const auto& out : outputs) {
    out_.insert(out_.end(), out.begin(), out.end());
    out_begin_.push_back(static_cast<std::uint32_t>(out_.size()));
  }
}

}  // namespace syrwatch::util
