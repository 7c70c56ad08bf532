#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/url.h"
#include "proxy/exception.h"

namespace syrwatch::proxy {

/// A client request as the proxy sees it, before filtering. Produced by the
/// workload generators and consumed by SgProxy/ProxyFarm.
struct Request {
  std::int64_t time = 0;          // unix seconds
  std::uint64_t user_id = 0;      // stable synthetic client identity
  std::string user_agent;
  std::string method = "GET";
  net::Url url;
  /// Destination IP when the client addressed an IP literal (or tunnelled
  /// CONNECT by IP); empty for plain hostname requests, matching the
  /// application-level view the policy filters on.
  std::optional<net::Ipv4Addr> dest_ip;
  /// Content-type hint steering cache admission.
  bool cacheable = false;
  /// Extra destination-specific connect-failure probability on top of the
  /// proxy's base error model (e.g. churned Tor relays, §7.1's 16.2%
  /// tcp_error rate on Tor traffic).
  double dest_unreachable_prob = 0.0;
  /// What a TLS-intercepting proxy *would* see inside an HTTPS tunnel.
  /// The leaked deployment did not intercept (§4: cs-uri-path/-query are
  /// absent from HTTPS records), so these fields only reach the log when
  /// SgProxyConfig::intercept_https is enabled — the what-if the EFF's
  /// MITM reports describe.
  std::string inner_path;
  std::string inner_query;
};

/// One log line, mirroring the analysis-relevant fields of the 26-field
/// Blue Coat csv schema (the paper's Table 2). c-ip is stored as a hash:
/// Telecomix replaced client IPs with zeros except for July 22–23, where
/// hashes were kept (the Duser dataset); `user_hash == 0` encodes the
/// suppressed form.
struct LogRecord {
  std::int64_t time = 0;              // date + time fields
  std::uint8_t proxy_index = 0;       // s-ip 82.137.200.(42+index)
  std::uint64_t user_hash = 0;        // c-ip (0 = suppressed)
  std::string user_agent;             // cs-user-agent
  std::string method;                 // cs-method
  net::Url url;                       // cs-host/-scheme/-port/-path/-query
  std::string categories;             // cs-categories as the proxy names it
  FilterResult filter_result = FilterResult::kObserved;  // sc-filter-result
  ExceptionId exception = ExceptionId::kNone;            // x-exception-id
  std::uint16_t status = 200;         // sc-status
  std::optional<net::Ipv4Addr> dest_ip;

  /// s-ip field of this record.
  net::Ipv4Addr proxy_address() const noexcept {
    return net::Ipv4Addr{82, 137, 200,
                         static_cast<std::uint8_t>(42 + proxy_index)};
  }
};

/// A LogRecord whose strings are views: what the csv codec
/// (proxy/log_io.h) parses a line into and formats from, and what
/// Dataset::add interns. The views belong to whoever filled it (a line
/// buffer, a parse scratch, a LogRecord).
struct LogRecordView {
  std::int64_t time = 0;
  std::uint8_t proxy_index = 0;
  std::uint64_t user_hash = 0;
  std::string_view user_agent;
  std::string_view method;
  net::Scheme scheme = net::Scheme::kHttp;
  std::string_view host;
  std::uint16_t port = 80;
  std::string_view path;
  std::string_view query;
  std::string_view categories;
  FilterResult filter_result = FilterResult::kObserved;
  ExceptionId exception = ExceptionId::kNone;
  std::uint16_t status = 200;
  std::optional<net::Ipv4Addr> dest_ip;
};

/// A view of `record`, valid while `record` is unchanged.
LogRecordView view_of(const LogRecord& record) noexcept;

/// Copies `view` into `record`, reusing the capacity of its strings.
void assign(LogRecord& record, const LogRecordView& view);

/// §3.3 classification of a record.
enum class TrafficClass : std::uint8_t {
  kAllowed,
  kCensored,
  kError,
  kProxied,
};

std::string_view to_string(TrafficClass c) noexcept;

/// Classifies per §3.3: PROXIED is its own class regardless of exception;
/// otherwise policy exceptions are censored, other exceptions errors, and
/// exception-free requests allowed.
TrafficClass classify(const LogRecord& record) noexcept;

/// The same classification, treating PROXIED by its underlying exception —
/// used where the paper folds proxied traffic into the censored/allowed
/// split (e.g. the keyword tables list proxied counts separately).
TrafficClass classify_by_exception(FilterResult result,
                                   ExceptionId exception) noexcept;

}  // namespace syrwatch::proxy
