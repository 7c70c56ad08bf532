#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace syrwatch::util {

/// RFC-4180-style CSV encoding used by the log writer/reader. The leaked
/// Blue Coat logs were comma-separated; fields containing commas, quotes or
/// newlines are quoted, quotes are doubled.

/// Appends `field` to `out`, quoted (quotes doubled) only when it holds a
/// comma, a quote, '\n' or '\r'.
void csv_append_escaped(std::string& out, std::string_view field);

/// Why csv_split rejected a line.
enum class CsvError : std::uint8_t {
  kNone = 0,
  /// A quoted field was never closed ("truncated) — the signature of a
  /// line cut mid-field.
  kUnbalancedQuote,
  /// Structurally broken quoting on an otherwise complete line: bytes
  /// after a closing quote ("ab"x) or a bare quote inside an unquoted
  /// field (a"b). RFC 4180 forbids both; silently gluing the pieces
  /// together ("ab"x → abx) would let damaged fields masquerade as clean
  /// data.
  kMalformedQuote,
};

struct CsvSplit {
  CsvError error = CsvError::kNone;
  /// Fields on the line, also those beyond `fields.size()` (which are
  /// counted but not stored); meaningful only without an error.
  std::size_t count = 0;
};

/// Splits one CSV line into views, in place. Strips one trailing '\r'
/// (externally produced logs are routinely CRLF-terminated). A quoted
/// field is viewed between its quotes; only a field with a doubled quote
/// is unescaped, into `scratch`, which is cleared and reserved to the
/// line's length first so that no view into it moves. The views are valid
/// while `line` and `scratch` are unchanged. The whole line is scanned
/// even past `fields.size()`, so quoting damage anywhere is reported
/// before a column count is.
CsvSplit csv_split(std::string_view line, std::span<std::string_view> fields,
                   std::string& scratch);

}  // namespace syrwatch::util
