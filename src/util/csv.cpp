#include "util/csv.h"

#include <array>
#include <cstring>

namespace syrwatch::util {

namespace {

constexpr std::array<bool, 256> make_needs_quotes() {
  std::array<bool, 256> table{};
  for (const char c : {',', '"', '\n', '\r'})
    table[static_cast<unsigned char>(c)] = true;
  return table;
}

constexpr std::array<bool, 256> kNeedsQuotes = make_needs_quotes();

}  // namespace

void csv_append_escaped(std::string& out, std::string_view field) {
  bool needs_quotes = false;
  for (const char c : field)
    if (kNeedsQuotes[static_cast<unsigned char>(c)]) {
      needs_quotes = true;
      break;
    }
  if (!needs_quotes) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

CsvSplit csv_split(std::string_view line, std::span<std::string_view> fields,
                   std::string& scratch) {
  // CRLF tail: a line reader strips the '\n' but leaves the '\r'. A
  // carriage return that is genuinely field data always arrives quoted
  // (csv_append_escaped quotes it, so the line would end with '"'), which
  // makes a bare trailing '\r' unambiguously a line-terminator artifact.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  scratch.clear();

  CsvSplit out;
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto find_quote = [end](const char* from) {
    return static_cast<const char*>(
        std::memchr(from, '"', static_cast<std::size_t>(end - from)));
  };
  const auto emit = [&](std::string_view field) {
    if (out.count < fields.size()) fields[out.count] = field;
    ++out.count;
  };
  for (;;) {  // one field per pass
    if (p != end && *p == '"') {
      const char* start = p + 1;
      const char* quote = find_quote(start);
      if (quote == nullptr) {
        out.error = CsvError::kUnbalancedQuote;
        return out;
      }
      std::string_view field{start, static_cast<std::size_t>(quote - start)};
      if (quote + 1 != end && quote[1] == '"') {
        // A doubled quote: unescape the field into scratch. Reserving the
        // whole line up front keeps every earlier view into it in place.
        if (scratch.capacity() < line.size()) scratch.reserve(line.size());
        const std::size_t from = scratch.size();
        while (quote + 1 != end && quote[1] == '"') {
          scratch.append(start, quote + 1);
          start = quote + 2;
          quote = find_quote(start);
          if (quote == nullptr) {
            out.error = CsvError::kUnbalancedQuote;
            return out;
          }
        }
        scratch.append(start, quote);
        field = std::string_view{scratch}.substr(from);
      }
      emit(field);
      p = quote + 1;
      if (p == end) return out;
      // Only a comma may follow a closing quote.
      if (*p != ',') {
        out.error = CsvError::kMalformedQuote;
        return out;
      }
      ++p;
      continue;
    }
    const char* start = p;
    while (p != end && *p != ',' && *p != '"') ++p;
    if (p != end && *p == '"') {  // a quote inside an unquoted field
      out.error = CsvError::kMalformedQuote;
      return out;
    }
    emit({start, static_cast<std::size_t>(p - start)});
    if (p == end) return out;
    ++p;
  }
}

}  // namespace syrwatch::util
