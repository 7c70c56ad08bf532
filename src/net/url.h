#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace syrwatch::net {

/// URL scheme as seen in the cs-uri-scheme log field. `kTcp` covers raw
/// tunnelled connections (HTTP CONNECT / Tor onion traffic), which the
/// proxies log with only a host/IP and port.
enum class Scheme : std::uint8_t { kHttp, kHttps, kTcp };

std::string_view to_string(Scheme scheme) noexcept;
std::optional<Scheme> parse_scheme(std::string_view text) noexcept;

/// Default port for a scheme (http 80, https 443, tcp 0 = caller-supplied).
std::uint16_t default_port(Scheme scheme) noexcept;

/// Decomposed URL mirroring the Blue Coat log schema: the proxies log
/// cs-host, cs-uri-scheme, cs-uri-port, cs-uri-path, cs-uri-query and
/// cs-uri-ext as separate fields, and the censorship policy matches against
/// those fields — so the decomposed form *is* the canonical representation
/// and the string form is derived.
struct Url {
  Scheme scheme = Scheme::kHttp;
  std::string host;        // hostname or dotted-quad IP
  std::uint16_t port = 80;
  std::string path;        // starts with '/' when non-empty
  std::string query;       // without the leading '?'

  /// File extension of the path ("php", "flv", ...) — empty when none.
  std::string extension() const;

  /// "http://host:port/path?query" (port elided when default).
  std::string to_string() const;
  /// Appends to_string()'s bytes to `out` — the form a caller reusing one
  /// buffer per request (the proxy's cache key) wants.
  void append_to(std::string& out) const;

  /// Host + path + "?" + query — the exact text the keyword filter scans
  /// (§5.4: string filtering relies on cs-host, cs-uri-path, cs-uri-query).
  std::string filter_text() const;

  /// Parses an absolute URL. Accepts missing scheme (defaults to http),
  /// empty path, and an optional port. Returns nullopt for empty host or
  /// malformed port.
  static std::optional<Url> parse(std::string_view text);

  friend bool operator==(const Url&, const Url&) = default;
};

}  // namespace syrwatch::net
