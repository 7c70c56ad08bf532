#include "net/url.h"

#include <charconv>

#include "util/strings.h"

namespace syrwatch::net {

std::string_view to_string(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kHttp: return "http";
    case Scheme::kHttps: return "https";
    case Scheme::kTcp: return "tcp";
  }
  return "http";
}

std::optional<Scheme> parse_scheme(std::string_view text) noexcept {
  if (text == "http") return Scheme::kHttp;
  if (text == "https" || text == "ssl") return Scheme::kHttps;
  if (text == "tcp") return Scheme::kTcp;
  return std::nullopt;
}

std::uint16_t default_port(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kHttp: return 80;
    case Scheme::kHttps: return 443;
    case Scheme::kTcp: return 0;
  }
  return 0;
}

std::string Url::extension() const {
  const auto slash = path.rfind('/');
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return {};
  if (slash != std::string::npos && dot < slash) return {};
  return path.substr(dot + 1);
}

std::string Url::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Url::append_to(std::string& out) const {
  out += syrwatch::net::to_string(scheme);
  out += "://";
  out += host;
  if (port != default_port(scheme)) {
    char digits[8];
    const auto end = std::to_chars(digits, digits + sizeof digits, port).ptr;
    out += ':';
    out.append(digits, end);
  }
  out += path;
  if (!query.empty()) {
    out += '?';
    out += query;
  }
}

std::string Url::filter_text() const {
  std::string out = host;
  out += path;
  if (!query.empty()) {
    out += '?';
    out += query;
  }
  return out;
}

std::optional<Url> Url::parse(std::string_view text) {
  Url url;
  const auto scheme_end = text.find("://");
  if (scheme_end != std::string_view::npos) {
    const auto scheme = parse_scheme(text.substr(0, scheme_end));
    if (!scheme) return std::nullopt;
    url.scheme = *scheme;
    text.remove_prefix(scheme_end + 3);
  }
  url.port = default_port(url.scheme);

  // Split authority from path/query. A query can follow the authority
  // directly ("host:81?a=b"), so split on either delimiter.
  const auto path_start = text.find_first_of("/?");
  std::string_view authority =
      path_start == std::string_view::npos ? text : text.substr(0, path_start);
  std::string_view rest =
      path_start == std::string_view::npos ? "" : text.substr(path_start);

  const auto colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const auto port_text = authority.substr(colon + 1);
    if (port_text.empty() || port_text.size() > 5) return std::nullopt;
    std::uint32_t port = 0;
    for (char c : port_text) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (port > 65535) return std::nullopt;
    url.port = static_cast<std::uint16_t>(port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) return std::nullopt;
  url.host = util::to_lower(authority);

  const auto query_start = rest.find('?');
  if (query_start == std::string_view::npos) {
    url.path = std::string(rest);
  } else {
    url.path = std::string(rest.substr(0, query_start));
    url.query = std::string(rest.substr(query_start + 1));
    // "host?a=b": the query follows the authority with no path. HTTP has
    // no pathless request-target, so normalize to "/" — otherwise
    // filter_text() and path-anchored rules would see "hosta=b"-style text
    // with no separator. A bare "host" (no '?') keeps its empty path:
    // that is the CONNECT/tcp shape the log renders as '-'.
    if (url.path.empty()) url.path = "/";
  }
  return url;
}

}  // namespace syrwatch::net
