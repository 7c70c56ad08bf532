#include "net/domain.h"

#include <algorithm>
#include <array>

#include "net/ipv4.h"
#include "util/strings.h"

namespace syrwatch::net {

namespace {

// Second-level labels that act as public suffixes under country TLDs.
constexpr std::array<std::string_view, 6> kSecondLevelSuffixes = {
    "co", "com", "net", "org", "gov", "ac"};

bool is_second_level_suffix(std::string_view label) noexcept {
  for (const auto s : kSecondLevelSuffixes) {
    if (label.size() == s.size() &&
        std::equal(label.begin(), label.end(), s.begin(),
                   [](char a, char b) { return util::ascii_lower(a) == b; }))
      return true;
  }
  return false;
}

}  // namespace

std::string registrable_domain(std::string_view host) {
  std::string scratch;
  return std::string{
      registrable_domain_view(host, looks_like_ipv4(host), scratch)};
}

std::string_view registrable_domain_view(std::string_view host, bool is_ipv4,
                                         std::string& scratch) {
  if (is_ipv4) return host;
  // The host's last three dots, right to left (npos past the first).
  constexpr std::size_t npos = std::string_view::npos;
  std::array<std::size_t, 3> dot{npos, npos, npos};
  for (std::size_t i = 0, end = host.size(); i < dot.size() && end > 0; ++i) {
    dot[i] = host.rfind('.', end - 1);
    if (dot[i] == npos) break;
    end = dot[i];
  }
  // At most two labels: the whole host.
  if (dot[1] == npos) return util::lowered(host, scratch);

  const std::string_view tld = host.substr(dot[0] + 1);
  const std::string_view second = host.substr(dot[1] + 1, dot[0] - dot[1] - 1);
  // ccTLDs are two letters; "co.uk"-style suffixes take three labels.
  const bool two_level_suffix =
      tld.size() == 2 && is_second_level_suffix(second);
  const std::size_t cut = dot[two_level_suffix ? 2 : 1];
  if (cut == npos) return util::lowered(host, scratch);  // nothing to drop
  // The kept labels, less any leading empty ones: joining them skips a
  // separator while the result is still empty, so "x..com" keeps "com".
  std::size_t start = cut + 1;
  while (start < host.size() && host[start] == '.') ++start;
  return util::lowered(host.substr(start), scratch);
}

}  // namespace syrwatch::net
