#include "policy/engine.h"

#include <algorithm>
#include <bit>

#include "util/strings.h"

namespace syrwatch::policy {

std::string_view to_string(PolicyAction action) noexcept {
  switch (action) {
    case PolicyAction::kAllow: return "allow";
    case PolicyAction::kDeny: return "deny";
    case PolicyAction::kRedirect: return "redirect";
  }
  return "allow";
}

namespace {

/// Visitor deciding whether one matcher fires for a request.
struct MatchVisitor {
  const FilterRequest& request;
  util::Rng& rng;

  bool operator()(const KeywordRule& r) const {
    return util::icontains(request.url->filter_text(), r.keyword);
  }
  bool operator()(const DomainRule& r) const {
    return util::host_matches_domain(request.url->host, r.domain);
  }
  bool operator()(const SubnetRule& r) const {
    return request.dest_ip && r.subnet.contains(*request.dest_ip);
  }
  bool operator()(const IpRule& r) const {
    return request.dest_ip && *request.dest_ip == r.address;
  }
  bool operator()(const CategoryRule& r) const {
    return !request.custom_category.empty() &&
           request.custom_category == r.category;
  }
  bool operator()(const PortRule& r) const {
    return request.url->port == r.port;
  }
  bool operator()(const EndpointSetRule& r) const {
    if (!request.dest_ip || !r.endpoints) return false;
    if (!r.endpoints->contains(
            EndpointSetRule::key(*request.dest_ip, request.url->port)))
      return false;
    const double p = r.schedule.intensity(request.time);
    return p >= 1.0 || rng.bernoulli(p);
  }
};

/// FNV-1a over folded bytes, read right to left: extending a suffix one
/// byte to the left is one step, so a host's suffixes hash in one pass.
constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;
std::uint64_t hash_step(std::uint64_t hash, char c) noexcept {
  const auto byte = static_cast<unsigned char>(util::ascii_lower(c));
  return (hash ^ byte) * 0x100000001b3ull;
}
std::uint64_t suffix_hash(std::string_view text) noexcept {
  std::uint64_t hash = kHashSeed;
  for (std::size_t i = text.size(); i-- > 0;) hash = hash_step(hash, text[i]);
  return hash;
}

/// Lowers `best` to the rule of the first entry below it that `hit`
/// accepts. Tables list their rules in index order, so that is the
/// table's smallest match under `best`.
template <typename Entry, typename Hit>
void lower_to_first_hit(const std::vector<Entry>& table, std::uint32_t& best,
                        Hit&& hit) {
  for (const Entry& entry : table) {
    if (entry.rule >= best) return;
    if (hit(entry)) {
      best = entry.rule;
      return;
    }
  }
}

}  // namespace

// ---- DomainTable -------------------------------------------------------

void PolicyEngine::DomainTable::insert(std::string_view domain,
                                       std::uint32_t rule) {
  if (domain.empty()) return;  // an empty domain matches no host
  first_rule_ = std::min(first_rule_, rule);
  std::string key = util::to_lower(domain);
  // A duplicate key keeps the earlier rule, which decides first.
  if (find(suffix_hash(key), key) != kEmpty) return;
  longest_ = std::max(longest_, key.size());
  keys_.push_back(std::move(key));
  key_rule_.push_back(rule);
  // At most half full; growing re-places every key.
  const bool grow = 2 * keys_.size() > slots_.size();
  if (grow) slots_.assign(std::bit_ceil(4 * keys_.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t k = grow ? 0 : keys_.size() - 1; k < keys_.size(); ++k) {
    const std::uint64_t hash = suffix_hash(keys_[k]);
    std::size_t i = hash & mask;
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i] = {hash, static_cast<std::uint32_t>(k)};
  }
}

std::uint32_t PolicyEngine::DomainTable::find(
    std::uint64_t hash, std::string_view suffix) const noexcept {
  if (slots_.empty()) return kEmpty;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask; slots_[i].key != kEmpty;
       i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.hash != hash) continue;
    const std::string& key = keys_[slot.key];
    if (std::equal(suffix.begin(), suffix.end(), key.begin(), key.end(),
                   [](char a, char b) { return util::ascii_lower(a) == b; }))
      return slot.key;
  }
  return kEmpty;
}

std::uint32_t PolicyEngine::DomainTable::first_match(
    std::string_view host) const noexcept {
  // util::host_matches_domain: a domain matches the whole host, the
  // suffix after a dot ("skype.com" in "www.skype.com"), or — when it has
  // a leading dot itself (".il") — the suffix from a dot. Right to left,
  // `hash` covers host[i+1..] before byte i is folded in, host[i..] after.
  std::uint32_t best = PolicyDecision::kNoRule;
  const auto probe = [&](std::uint64_t hash, std::string_view suffix) {
    if (const std::uint32_t key = find(hash, suffix); key != kEmpty)
      best = std::min(best, key_rule_[key]);
  };
  const std::size_t n = host.size();
  std::uint64_t hash = kHashSeed;
  for (std::size_t i = n; i-- > 0;) {
    if (n - 1 - i > longest_) return best;  // no key is that long
    const std::uint64_t after = hash;
    hash = hash_step(hash, host[i]);
    if (host[i] == '.') {
      probe(after, host.substr(i + 1));
      probe(hash, host.substr(i));
    }
  }
  if (n != 0) probe(hash, host);
  return best;
}

// ---- PolicyEngine ------------------------------------------------------

PolicyEngine::PolicyEngine(std::vector<Rule> rules)
    : rules_(std::move(rules)) {
  bool keywords = false;
  for (std::uint32_t i = 0; i < rules_.size(); ++i) keywords |= compile(i);
  if (keywords) build_keywords();
}

std::uint32_t PolicyEngine::add(Rule rule) {
  rules_.push_back(std::move(rule));
  const auto index = static_cast<std::uint32_t>(rules_.size() - 1);
  if (compile(index)) build_keywords();
  return index;
}

bool PolicyEngine::compile(std::uint32_t index) {
  // Rules arrive in index order, so every table lists its rules in index
  // order and a forward scan's first hit is its smallest match.
  const RuleMatcher& matcher = rules_[index].matcher;
  if (const auto* r = std::get_if<KeywordRule>(&matcher)) {
    if (!r->keyword.empty()) {
      keyword_rule_.push_back(index);
      return true;
    }
    first_empty_keyword_ = std::min(first_empty_keyword_, index);
  } else if (const auto* r = std::get_if<DomainRule>(&matcher)) {
    domains_.insert(r->domain, index);
  } else if (const auto* r = std::get_if<SubnetRule>(&matcher)) {
    addresses_.push_back(
        {r->subnet.network().value(), r->subnet.mask(), index});
  } else if (const auto* r = std::get_if<IpRule>(&matcher)) {
    addresses_.push_back({r->address.value(), ~std::uint32_t{0}, index});
  } else if (const auto* r = std::get_if<CategoryRule>(&matcher)) {
    if (!r->category.empty()) categories_.push_back({r->category, index});
  } else if (const auto* r = std::get_if<PortRule>(&matcher)) {
    ports_.push_back({r->port, index});
  } else {
    endpoint_rules_.push_back(index);
  }
  return false;
}

void PolicyEngine::build_keywords() {
  std::vector<std::string> patterns;
  patterns.reserve(keyword_rule_.size());
  for (const std::uint32_t rule : keyword_rule_)
    patterns.push_back(std::get<KeywordRule>(rules_[rule].matcher).keyword);
  keywords_ = util::SubstringMatcher{patterns};
}

std::uint32_t PolicyEngine::first_deterministic(
    const FilterRequest& request) const noexcept {
  const net::Url& url = *request.url;
  std::uint32_t best = first_empty_keyword_;
  if (!request.custom_category.empty()) {
    lower_to_first_hit(categories_, best, [&](const CategoryEntry& entry) {
      return entry.category == request.custom_category;
    });
  }
  if (request.dest_ip) {
    const std::uint32_t ip = request.dest_ip->value();
    lower_to_first_hit(addresses_, best, [&](const AddressEntry& entry) {
      return (ip & entry.mask) == entry.network;
    });
  }
  lower_to_first_hit(ports_, best, [&](const PortEntry& entry) {
    return entry.port == url.port;
  });
  // The keyword text is host + path + ("?" + query when there is one),
  // fed piece by piece so a keyword may span two pieces.
  if (!keyword_rule_.empty() && keyword_rule_.front() < best) {
    const auto hit = [&](std::uint32_t id) {
      best = std::min(best, keyword_rule_[id]);
    };
    std::uint32_t state = util::SubstringMatcher::kStart;
    state = keywords_.feed(state, url.host, hit);
    state = keywords_.feed(state, url.path, hit);
    if (!url.query.empty()) {
      state = keywords_.feed(state, "?", hit);
      keywords_.feed(state, url.query, hit);
    }
  }
  if (domains_.first_rule() < best)
    best = std::min(best, domains_.first_match(url.host));
  return best;
}

PolicyDecision PolicyEngine::evaluate(const FilterRequest& request,
                                      util::Rng& rng) const noexcept {
  // A scheduled rule is tried exactly when a walk in index order would
  // reach it: below the first deterministic match, after every scheduled
  // rule before it declined. So it draws from `rng` exactly as often.
  const std::uint32_t best = first_deterministic(request);
  for (const std::uint32_t index : endpoint_rules_) {
    if (index >= best) break;
    if (MatchVisitor{request, rng}(
            std::get<EndpointSetRule>(rules_[index].matcher)))
      return {rules_[index].action, index};
  }
  if (best == PolicyDecision::kNoRule) return {};
  return {rules_[best].action, best};
}

bool PolicyEngine::rule_matches(std::uint32_t index,
                                const FilterRequest& request,
                                util::Rng& rng) const {
  return std::visit(MatchVisitor{request, rng}, rules_.at(index).matcher);
}

}  // namespace syrwatch::policy
