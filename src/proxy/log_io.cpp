#include "proxy/log_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/trace.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/simtime.h"

namespace syrwatch::proxy {

namespace {

constexpr int kColumnCount = 17;

std::string_view dash_to_empty(std::string_view value) {
  return value == "-" ? std::string_view{} : value;
}

/// File extension of a path, as net::Url::extension derives it.
std::string_view extension_of(std::string_view path) {
  const auto slash = path.rfind('/');
  const auto dot = path.rfind('.');
  if (dot == std::string_view::npos) return {};
  if (slash != std::string_view::npos && dot < slash) return {};
  return path.substr(dot + 1);
}

void append_escaped_or_dash(std::string& out, std::string_view value) {
  if (value.empty())
    out.push_back('-');
  else
    util::csv_append_escaped(out, value);
}

template <typename T>
void append_number(std::string& out, T value, int base = 10) {
  char digits[24];
  const auto [end, ec] =
      std::to_chars(digits, digits + sizeof digits, value, base);
  out.append(digits, end);
}

/// printf's %0<width>d.
void append_padded(std::string& out, int value, int width) {
  char digits[16];
  if (value < 0) {
    const int size = std::snprintf(digits, sizeof digits, "%0*d", width, value);
    out.append(digits, static_cast<std::size_t>(size));
    return;
  }
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
  for (auto pad = width - (end - digits); pad > 0; --pad) out.push_back('0');
  out.append(digits, end);
}

void append_ipv4(std::string& out, net::Ipv4Addr address) {
  for (int i = 0; i < 4; ++i) {
    if (i != 0) out.push_back('.');
    append_number(out, address.octet(i));
  }
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// Bounded civil-field parser: from_chars (no exceptions, no locale), full
/// consumption, and an inclusive range check. Rejects the out-of-range
/// values ("2011-13-01", hour 25, negative day) that the exception-driven
/// stoi path used to accept silently.
std::optional<int> parse_civil_field(std::string_view text, int lo, int hi) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

/// Splits `text` at `sep` into exactly three parts.
bool split3(std::string_view text, char sep,
            std::array<std::string_view, 3>& parts) {
  const auto first = text.find(sep);
  if (first == std::string_view::npos) return false;
  const auto second = text.find(sep, first + 1);
  if (second == std::string_view::npos ||
      text.find(sep, second + 1) != std::string_view::npos)
    return false;
  parts = {text.substr(0, first), text.substr(first + 1, second - first - 1),
           text.substr(second + 1)};
  return true;
}

std::optional<std::int64_t> parse_timestamp(std::string_view date,
                                            std::string_view clock) {
  std::array<std::string_view, 3> date_parts;
  std::array<std::string_view, 3> time_parts;
  if (!split3(date, '-', date_parts) || !split3(clock, ':', time_parts))
    return std::nullopt;
  util::CivilDateTime c;
  const auto year = parse_civil_field(date_parts[0], 1970, 9999);
  const auto month = parse_civil_field(date_parts[1], 1, 12);
  const auto day = parse_civil_field(date_parts[2], 1, 31);
  const auto hour = parse_civil_field(time_parts[0], 0, 23);
  const auto minute = parse_civil_field(time_parts[1], 0, 59);
  const auto second = parse_civil_field(time_parts[2], 0, 59);
  if (!year || !month || !day || !hour || !minute || !second)
    return std::nullopt;
  c.year = *year;
  c.month = *month;
  c.day = *day;
  c.hour = *hour;
  c.minute = *minute;
  c.second = *second;
  const std::int64_t t = util::to_unix_seconds(c);
  // Round-trip check catches dates the per-field ranges cannot (Feb 30,
  // Apr 31): a date that does not exist normalizes to a different one.
  const util::CivilDateTime back = util::to_civil(t);
  if (back.year != c.year || back.month != c.month || back.day != c.day)
    return std::nullopt;
  return t;
}

/// "wrong column count (got 4, expected 17)"-style reason for messages.
std::string describe_failure(const ParseDiagnosis& diagnosis) {
  if (diagnosis.error == ParseError::kColumnCount) {
    return "wrong column count (got " + std::to_string(diagnosis.columns) +
           ", expected " + std::to_string(kColumnCount) + ")";
  }
  return std::string(to_string(diagnosis.error));
}

}  // namespace

std::string_view to_string(ParseError error) noexcept {
  switch (error) {
    case ParseError::kNone: return "ok";
    case ParseError::kUnbalancedQuote: return "unbalanced quote";
    case ParseError::kColumnCount: return "wrong column count";
    case ParseError::kBadTimestamp: return "bad timestamp";
    case ParseError::kBadAddress: return "bad proxy address";
    case ParseError::kBadField: return "bad field";
    case ParseError::kMalformedQuote: return "malformed quote";
  }
  return "?";
}

std::string log_csv_header() {
  return "date,time,s-ip,c-ip,cs-method,cs-uri-scheme,cs-host,cs-uri-port,"
         "cs-uri-path,cs-uri-query,cs-uri-ext,cs-user-agent,cs-categories,"
         "sc-status,sc-filter-result,x-exception-id,r-ip";
}

void append_csv(const LogRecordView& record, std::string& out) {
  const util::CivilDateTime c = util::to_civil(record.time);
  append_padded(out, c.year, 4);
  out.push_back('-');
  append_padded(out, c.month, 2);
  out.push_back('-');
  append_padded(out, c.day, 2);
  out.push_back(',');
  append_padded(out, c.hour, 2);
  out.push_back(':');
  append_padded(out, c.minute, 2);
  out.push_back(':');
  append_padded(out, c.second, 2);
  out += ",82.137.200.";
  append_number(out, static_cast<std::uint8_t>(42 + record.proxy_index));
  out.push_back(',');
  if (record.user_hash == 0) {
    out += "0.0.0.0";
  } else {
    char hex[16];
    const auto [end, ec] =
        std::to_chars(hex, hex + sizeof hex, record.user_hash, 16);
    out.append(static_cast<std::size_t>(hex + sizeof hex - end), '0');
    out.append(hex, end);
  }
  out.push_back(',');
  util::csv_append_escaped(out, record.method);
  out.push_back(',');
  out += net::to_string(record.scheme);
  out.push_back(',');
  util::csv_append_escaped(out, record.host);
  out.push_back(',');
  append_number(out, record.port);
  out.push_back(',');
  append_escaped_or_dash(out, record.path);
  out.push_back(',');
  append_escaped_or_dash(out, record.query);
  out.push_back(',');
  append_escaped_or_dash(out, extension_of(record.path));
  out.push_back(',');
  append_escaped_or_dash(out, record.user_agent);
  out.push_back(',');
  append_escaped_or_dash(out, record.categories);
  out.push_back(',');
  append_number(out, record.status);
  out.push_back(',');
  out += to_string(record.filter_result);
  out.push_back(',');
  out += to_string(record.exception);
  out.push_back(',');
  if (record.dest_ip)
    append_ipv4(out, *record.dest_ip);
  else
    out.push_back('-');
  out.push_back('\n');
}

ParseDiagnosis parse_log_line(std::string_view line, LogRecordView& record,
                              std::string& scratch) {
  ParseDiagnosis diagnosis;
  std::array<std::string_view, kColumnCount> f;
  const util::CsvSplit split = util::csv_split(line, f, scratch);
  if (split.error != util::CsvError::kNone) {
    diagnosis.error = split.error == util::CsvError::kMalformedQuote
                          ? ParseError::kMalformedQuote
                          : ParseError::kUnbalancedQuote;
    return diagnosis;
  }
  diagnosis.columns = split.count;
  if (split.count != kColumnCount) {
    diagnosis.error = ParseError::kColumnCount;
    return diagnosis;
  }

  const auto time = parse_timestamp(f[0], f[1]);
  if (!time) {
    diagnosis.error = ParseError::kBadTimestamp;
    return diagnosis;
  }
  record.time = *time;

  const auto s_ip = net::Ipv4Addr::parse(f[2]);
  if (!s_ip || s_ip->octet(3) < 42 || s_ip->octet(3) > 48) {
    diagnosis.error = ParseError::kBadAddress;
    return diagnosis;
  }
  record.proxy_index = static_cast<std::uint8_t>(s_ip->octet(3) - 42);

  diagnosis.error = ParseError::kBadField;  // any failure below
  if (f[3] == "0.0.0.0") {
    record.user_hash = 0;
  } else {
    const auto hash = parse_u64(f[3], 16);
    if (!hash) return diagnosis;
    record.user_hash = *hash;
  }

  record.method = f[4];
  const auto scheme = net::parse_scheme(f[5]);
  if (!scheme) return diagnosis;
  record.scheme = *scheme;
  record.host = f[6];
  const auto port = parse_u64(f[7]);
  if (!port || *port > 65535) return diagnosis;
  record.port = static_cast<std::uint16_t>(*port);
  record.path = dash_to_empty(f[8]);
  record.query = dash_to_empty(f[9]);
  // f[10] (cs-uri-ext) is derived from the path; ignored on read.
  record.user_agent = dash_to_empty(f[11]);
  record.categories = dash_to_empty(f[12]);
  const auto status = parse_u64(f[13]);
  if (!status || *status > 999) return diagnosis;
  record.status = static_cast<std::uint16_t>(*status);
  const auto result = parse_filter_result(f[14]);
  if (!result) return diagnosis;
  record.filter_result = *result;
  const auto exception = parse_exception(f[15]);
  if (!exception) return diagnosis;
  record.exception = *exception;
  record.dest_ip.reset();
  if (f[16] != "-") {
    const auto dest = net::Ipv4Addr::parse(f[16]);
    if (!dest) return diagnosis;
    record.dest_ip = *dest;
  }
  diagnosis.error = ParseError::kNone;
  return diagnosis;
}

std::string to_csv(const LogRecord& record) {
  std::string line;
  append_csv(view_of(record), line);
  line.pop_back();
  return line;
}

std::optional<LogRecord> from_csv(std::string_view line,
                                  ParseDiagnosis* diagnosis) {
  LogRecordView view;
  std::string scratch;
  const ParseDiagnosis parsed = parse_log_line(line, view, scratch);
  if (diagnosis != nullptr) *diagnosis = parsed;
  if (parsed.error != ParseError::kNone) return std::nullopt;
  LogRecord record;
  assign(record, view);
  return record;
}

std::span<char> LineBuffer::space() {
  if (begin_ != 0) {
    // The partial line moves to the front; everything before it was
    // handed out already.
    std::memmove(bytes_.data(), bytes_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    scanned_ -= begin_;
    begin_ = 0;
  }
  if (bytes_.size() < end_ + kChunkBytes) bytes_.resize(end_ + kChunkBytes);
  return {bytes_.data() + end_, kChunkBytes};
}

bool LineBuffer::next(std::string_view& line) noexcept {
  const char* base = bytes_.data();
  const void* newline = std::memchr(base + scanned_, '\n', end_ - scanned_);
  if (newline == nullptr) {
    scanned_ = end_;
    return false;
  }
  const auto at = static_cast<std::size_t>(static_cast<const char*>(newline) -
                                           base);
  line = {base + begin_, at - begin_};
  begin_ = scanned_ = at + 1;
  return true;
}

void write_log(std::ostream& out, const std::vector<LogRecord>& records) {
  out << log_csv_header() << '\n';
  std::string line;
  for (const LogRecord& record : records) {
    line.clear();
    append_csv(view_of(record), line);
    out << line;
    if (!out) throw std::runtime_error("write_log: stream write failed");
  }
  out.flush();
  if (!out) throw std::runtime_error("write_log: stream flush failed");
}

util::ArtifactInfo write_log_file(const std::string& path,
                                  const std::vector<LogRecord>& records) {
  util::AtomicFileWriter writer{path};
  writer.write(log_csv_header());
  writer.write("\n");
  std::string line;
  for (const LogRecord& record : records) {
    line.clear();
    append_csv(view_of(record), line);
    writer.write(line);
  }
  return writer.commit();
}

std::vector<LogRecord> read_log(std::istream& in) {
  LogLineReader reader;
  std::vector<LogRecord> records;
  read_log_ahead(in, 1, reader, [&](LineKind kind, const ParsedLine& line) {
    if (!reader.stats().header_present)
      throw std::runtime_error("read_log: missing or unexpected header");
    if (kind == LineKind::kRecord) {
      assign(records.emplace_back(), line.record);
    } else if (kind == LineKind::kSkipped) {
      throw std::runtime_error(
          "read_log: line " + std::to_string(reader.stats().lines) + ": " +
          describe_failure(line.diagnosis) + ": " + std::string(line.text));
    }
  });
  if (!reader.stats().header_present)
    throw std::runtime_error("read_log: missing or unexpected header");
  return records;
}

std::uint64_t LogReadStats::skipped_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : skipped) total += count;
  return total;
}

std::string LogReadStats::summary() const {
  std::string out;
  out += "lines: " + std::to_string(lines) +
         " (header: " + (header_present ? "present" : "MISSING") +
         ", empty: " + std::to_string(empty_lines) + ")\n";
  out += "records recovered: " + std::to_string(recovered) + " / " +
         std::to_string(data_lines) + " data lines\n";
  for (std::size_t i = 1; i < kParseErrorCount; ++i) {
    if (skipped[i] == 0) continue;
    out += "skipped (" + std::string(to_string(static_cast<ParseError>(i))) +
           "): " + std::to_string(skipped[i]) + ", first at line " +
           std::to_string(first_error_line[i]) + "\n";
  }
  if (truncated_tail)
    out += "tail: TRUNCATED (torn final record — partial artifact?)\n";
  return out;
}

void parse_line(std::string_view line, ParsedLine& out,
                std::string& scratch) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  out.text = line;
  out.diagnosis = line.empty() ? ParseDiagnosis{}
                               : parse_log_line(line, out.record, scratch);
}

LineKind LogLineReader::account(const ParsedLine& line) {
  ++stats_.lines;
  last_empty_ = line.text.empty();
  if (expect_header_) {
    expect_header_ = false;
    if (line.text == log_csv_header()) {
      stats_.header_present = true;
      return LineKind::kHeader;
    }
    // Headerless (or header-damaged) log: try the line as data — a
    // truncated header is tallied as a skipped line.
  }
  if (line.text.empty()) {
    ++stats_.empty_lines;
    return LineKind::kEmpty;
  }
  ++stats_.data_lines;
  last_data_error_ = line.diagnosis.error;
  last_data_error_line_ = stats_.lines;
  if (line.diagnosis.error == ParseError::kNone) {
    ++stats_.recovered;
    return LineKind::kRecord;
  }
  const auto reason = static_cast<std::size_t>(line.diagnosis.error);
  ++stats_.skipped[reason];
  if (stats_.first_error_line[reason] == 0)
    stats_.first_error_line[reason] = stats_.lines;
  return LineKind::kSkipped;
}

void LogLineReader::finish(bool unterminated) noexcept {
  stats_.truncated_tail =
      (unterminated && !last_empty_) ||
      (last_data_error_ == ParseError::kColumnCount &&
       last_data_error_line_ == stats_.lines);
}

namespace {

/// One newline-aligned slice of a window, parsed by one worker.
struct Slice {
  std::string_view bytes;
  std::vector<ParsedLine> lines;
  /// The doubled-quote fields of `lines`: a deque never moves a string.
  std::deque<std::string> arena;
  std::string scratch;
};

/// Whole lines of the log and, behind them, the start of the next one.
struct Window {
  std::string bytes;
  std::size_t size = 0;  // bytes filled
  std::size_t cut = 0;   // one past the last whole line
  bool last = false;     // the stream ended: [0, cut) is its final line
  std::vector<Slice> slices;

  std::string_view partial() const noexcept {
    return {bytes.data() + cut, size - cut};
  }
};

/// Refills `window` with `carry` (the previous window's partial line) and
/// the next kParseWindowBytes of `in`, reading on while no newline has
/// come (a line longer than a window). At the end of the stream the
/// partial line is the window's only, unterminated line.
void fill(std::istream& in, std::string_view carry, Window& window) {
  if (window.bytes.size() < carry.size() + kParseWindowBytes)
    window.bytes.resize(carry.size() + kParseWindowBytes);
  std::copy(carry.begin(), carry.end(), window.bytes.begin());
  window.size = carry.size();
  for (;;) {
    const std::size_t from = window.size;
    if (window.bytes.size() < from + kParseWindowBytes)
      window.bytes.resize(from + kParseWindowBytes);
    in.read(window.bytes.data() + from,
            static_cast<std::streamsize>(kParseWindowBytes));
    if (in.bad()) throw std::runtime_error("csv log: read error");
    const auto got = static_cast<std::size_t>(in.gcount());
    window.size += got;
    const auto newline =
        std::string_view{window.bytes.data() + from, got}.rfind('\n');
    if (newline != std::string_view::npos) {
      window.cut = from + newline + 1;
      window.last = false;
      return;
    }
    if (got == 0) {
      window.cut = window.size;
      window.last = true;
      return;
    }
  }
}

void parse_slice(Slice& slice) {
  slice.lines.clear();
  slice.arena.clear();
  std::string_view rest = slice.bytes;
  while (!rest.empty()) {
    const std::size_t end = std::min(rest.find('\n'), rest.size());
    const std::string_view line = rest.substr(0, end);
    rest.remove_prefix(std::min(end + 1, rest.size()));
    ParsedLine& parsed = slice.lines.emplace_back();
    parse_line(line, parsed, slice.scratch);
    // A field unescaped into scratch must outlive the next line's parse.
    if (!slice.scratch.empty())
      parse_line(line, parsed, slice.arena.emplace_back());
  }
}

/// fill, then parse the window's lines on `workers` threads, one
/// newline-aligned slice each.
void load(std::istream& in, std::string_view carry, Window& window,
          std::size_t workers, obs::StageStats* parse_timer) {
  fill(in, carry, window);
  const std::string_view lines{window.bytes.data(), window.cut};
  window.slices.resize(workers);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < workers; ++s) {
    std::size_t end = lines.size();
    if (s + 1 < workers) {
      // Past the newline that ends the line holding byte target - 1.
      const std::size_t target = lines.size() / workers * (s + 1);
      end = target <= begin
                ? begin
                : std::min(lines.find('\n', target - 1), lines.size() - 1) + 1;
    }
    window.slices[s].bytes = lines.substr(begin, end - begin);
    begin = end;
  }
  util::parallel_for(workers, workers, [&](std::size_t s) {
    const obs::StageTimer timer{parse_timer};
    parse_slice(window.slices[s]);
  });
}

}  // namespace

LogReadStats read_log_ahead(
    std::istream& in, std::size_t threads, LogLineReader& reader,
    const std::function<void(LineKind, const ParsedLine&)>& on_line,
    obs::Context* obs) {
  obs::StageStats* const parse_timer = obs::stage(obs, "csv.parse_window");
  obs::StageStats* const wait_timer = obs::stage(obs, "csv.append_wait");
  const std::size_t workers = threads > 1 ? threads - 1 : 1;
  std::array<Window, 2> windows;
  Window* current = &windows[0];
  Window* next = &windows[1];
  load(in, {}, *current, workers, parse_timer);
  for (;;) {
    std::future<void> ahead;
    if (!current->last)
      ahead = std::async(
          threads > 1 ? std::launch::async : std::launch::deferred,
          [&in, carry = current->partial(), next, workers, parse_timer] {
            load(in, carry, *next, workers, parse_timer);
          });
    for (const Slice& slice : current->slices)
      for (const ParsedLine& line : slice.lines)
        on_line(reader.account(line), line);
    if (current->last) {
      reader.finish(current->size != 0);
      break;
    }
    {
      const obs::StageTimer timer{wait_timer};
      ahead.get();
    }
    std::swap(current, next);
  }
  const LogReadStats& stats = reader.stats();
  obs::add(obs::counter(obs, "csv.lines"), stats.lines);
  obs::add(obs::counter(obs, "csv.records"), stats.recovered);
  obs::add(obs::counter(obs, "csv.skipped"), stats.skipped_total());
  return stats;
}

LogReadStats scan_log_lenient(
    std::istream& in, const std::function<void(const LogRecordView&)>& sink) {
  LogLineReader reader;
  return read_log_ahead(in, 1, reader,
                        [&](LineKind kind, const ParsedLine& line) {
                          if (kind == LineKind::kRecord) sink(line.record);
                        });
}

LenientLog read_log_lenient(std::istream& in) {
  LenientLog result;
  result.stats = scan_log_lenient(in, [&](const LogRecordView& record) {
    assign(result.records.emplace_back(), record);
  });
  return result;
}

}  // namespace syrwatch::proxy
