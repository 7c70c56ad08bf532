#pragma once

#include <string>
#include <string_view>

namespace syrwatch::net {

/// Registrable domain ("eTLD+1") of a host, with a small built-in list of
/// two-level public suffixes covering the TLDs in this study (.co.uk,
/// .com.sy, .co.il, ...). IP literals and single-label hosts are returned
/// unchanged. This is what the paper means by "domain" in its top-domain
/// tables: www.facebook.com and ar-ar.facebook.com both count as
/// facebook.com.
std::string registrable_domain(std::string_view host);

/// registrable_domain(host) without allocating, for callers that already
/// parsed `host` as IPv4 (`is_ipv4`: an IPv4 literal is its own domain).
/// The view points into `host` when the kept labels hold no upper-case
/// letter, else into `scratch`, which is overwritten.
std::string_view registrable_domain_view(std::string_view host, bool is_ipv4,
                                         std::string& scratch);

}  // namespace syrwatch::net
