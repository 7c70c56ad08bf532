#include "util/strings.h"

#include <algorithm>
#include <cstdio>

namespace syrwatch::util {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_lower);
  return out;
}

std::string_view lowered(std::string_view s, std::string& scratch) {
  if (std::none_of(s.begin(), s.end(),
                   [](char c) { return c >= 'A' && c <= 'Z'; }))
    return s;
  scratch.assign(s);
  std::transform(scratch.begin(), scratch.end(), scratch.begin(), ascii_lower);
  return scratch;
}

bool contains(std::string_view haystack, std::string_view needle) noexcept {
  return haystack.find(needle) != std::string_view::npos;
}

bool icontains(std::string_view haystack, std::string_view needle) noexcept {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const auto it = std::search(
      haystack.begin(), haystack.end(), needle.begin(), needle.end(),
      [](char a, char b) { return ascii_lower(a) == ascii_lower(b); });
  return it != haystack.end();
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool host_matches_domain(std::string_view host,
                         std::string_view domain) noexcept {
  if (domain.empty() || host.size() < domain.size()) return false;
  const auto tail = host.substr(host.size() - domain.size());
  const bool suffix_equal =
      std::equal(tail.begin(), tail.end(), domain.begin(), domain.end(),
                 [](char a, char b) { return ascii_lower(a) == ascii_lower(b); });
  if (!suffix_equal) return false;
  if (host.size() == domain.size()) return true;
  // Subdomain boundary: either the domain itself starts with '.', or the
  // character before the suffix is a label separator.
  return domain.front() == '.' || host[host.size() - domain.size() - 1] == '.';
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string with_commas(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int run = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (run != 0 && run % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++run;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string compact_count(std::uint64_t value) {
  char buf[64];
  if (value >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.2fM",
                  static_cast<double>(value) / 1'000'000.0);
    return buf;
  }
  return with_commas(value);
}

}  // namespace syrwatch::util
