#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "policy/rule.h"
#include "util/rng.h"
#include "util/substring_matcher.h"

namespace syrwatch::policy {

/// The outcome of evaluating a request against the policy.
struct PolicyDecision {
  PolicyAction action = PolicyAction::kAllow;
  /// Index of the matched rule in the engine, or kNoRule when allowed by
  /// default.
  static constexpr std::uint32_t kNoRule = ~std::uint32_t{0};
  std::uint32_t rule_index = kNoRule;

  bool censored() const noexcept { return action != PolicyAction::kAllow; }
};

/// First-match policy evaluator (Blue Coat layer semantics): the rule with
/// the smallest index that matches a request decides it, and a request no
/// rule matches is allowed. The Rng parameter feeds scheduled
/// (probabilistic) rules only, and a scheduled rule draws exactly when no
/// rule before it matched, as a walk over the rules in index order would;
/// deterministic rules never consume randomness, so a policy without
/// scheduled rules is a pure function of the request.
///
/// Rules are compiled as they are added (DESIGN.md §4.16): one
/// case-folding automaton over every keyword, one suffix table over every
/// domain, and flat tables for addresses, categories, ports and scheduled
/// rules. evaluate() takes the smallest deterministic match from those
/// tables, then tries the scheduled rules below it in index order.
class PolicyEngine {
 public:
  PolicyEngine() = default;
  explicit PolicyEngine(std::vector<Rule> rules);

  /// Appends a rule; returns its index.
  std::uint32_t add(Rule rule);

  const std::vector<Rule>& rules() const noexcept { return rules_; }
  const Rule& rule(std::uint32_t index) const { return rules_.at(index); }

  PolicyDecision evaluate(const FilterRequest& request,
                          util::Rng& rng) const noexcept;

  /// True when one rule, evaluated in isolation, matches — the per-rule
  /// reference the compiled tables are tested against, and the probe of
  /// the rule-order ablation.
  bool rule_matches(std::uint32_t index, const FilterRequest& request,
                    util::Rng& rng) const;

 private:
  /// Domain keys, lower-cased, in an open-addressing table probed by a
  /// hash computed right to left over the host, so each label boundary's
  /// suffix costs one probe.
  class DomainTable {
   public:
    void insert(std::string_view domain, std::uint32_t rule);
    /// Smallest rule index whose domain matches `host`, or kNoRule.
    std::uint32_t first_match(std::string_view host) const noexcept;
    std::uint32_t first_rule() const noexcept { return first_rule_; }

   private:
    struct Slot {
      std::uint64_t hash = 0;
      std::uint32_t key = kEmpty;
    };
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    /// The key equal to `suffix` (folded), given its hash, or kEmpty.
    std::uint32_t find(std::uint64_t hash,
                       std::string_view suffix) const noexcept;

    std::vector<std::string> keys_;
    std::vector<std::uint32_t> key_rule_;  ///< smallest rule per key
    std::vector<Slot> slots_;              ///< power of two, at most 1/2 full
    std::size_t longest_ = 0;
    std::uint32_t first_rule_ = PolicyDecision::kNoRule;
  };
  struct AddressEntry {
    std::uint32_t network = 0;
    std::uint32_t mask = 0;  ///< all ones for an IpRule
    std::uint32_t rule = 0;
  };
  struct CategoryEntry {
    std::string category;
    std::uint32_t rule = 0;
  };
  struct PortEntry {
    std::uint16_t port = 0;
    std::uint32_t rule = 0;
  };

  /// Folds rules_[index] into the tables; true when it is a keyword rule,
  /// whose automaton must then be rebuilt.
  bool compile(std::uint32_t index);
  void build_keywords();
  /// Smallest index of a matching rule that draws no randomness.
  std::uint32_t first_deterministic(const FilterRequest& request)
      const noexcept;

  std::vector<Rule> rules_;
  util::SubstringMatcher keywords_;
  std::vector<std::uint32_t> keyword_rule_;  ///< pattern id -> rule index
  /// An empty keyword matches every request, as icontains does.
  std::uint32_t first_empty_keyword_ = PolicyDecision::kNoRule;
  DomainTable domains_;
  std::vector<AddressEntry> addresses_;
  std::vector<CategoryEntry> categories_;
  std::vector<PortEntry> ports_;
  std::vector<std::uint32_t> endpoint_rules_;  ///< the rules that draw
};

}  // namespace syrwatch::policy
