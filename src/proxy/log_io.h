#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "proxy/log_record.h"
#include "util/atomic_io.h"

namespace syrwatch::obs {
class Context;
}

namespace syrwatch::proxy {

/// CSV serialization of log records in the leak's style: one line per
/// request, comma-separated, '-' for empty fields. The column set is the
/// analysis-relevant subset of the 26 Blue Coat fields (Table 2), in a
/// fixed order given by `log_csv_header()`.
///
/// One codec serves every writer and reader (DESIGN.md §4.15):
/// append_csv formats a LogRecordView into a caller-owned buffer,
/// parse_log_line splits a line in place into one, LineBuffer cuts a byte
/// stream into lines without copying them, LogLineReader frames each
/// line (CRLF, header, blank lines, skip tally) the same way for all, and
/// read_log_ahead reads a whole log, parsing a window ahead on workers.

/// "date,time,s-ip,c-ip,cs-method,cs-host,..." header line.
std::string log_csv_header();

/// Appends `record` as one CSV line and its '\n' to `out`.
void append_csv(const LogRecordView& record, std::string& out);

/// Why a line failed to parse. kNone means it parsed.
enum class ParseError : std::uint8_t {
  kNone = 0,
  kUnbalancedQuote,  // CSV-level damage: quote never closed
  kColumnCount,      // wrong number of fields
  kBadTimestamp,     // date/time malformed or out of civil range
  kBadAddress,       // s-ip not one of the seven proxy addresses
  kBadField,         // any other field failed validation
  kMalformedQuote,   // CSV-level damage: broken quoting ("ab"x, a"b)
};

inline constexpr std::size_t kParseErrorCount = 7;

std::string_view to_string(ParseError error) noexcept;

/// Per-field detail of a parse failure, for error messages and LogReadStats.
struct ParseDiagnosis {
  ParseError error = ParseError::kNone;
  /// Actual column count when the line at least split into fields
  /// (meaningful for kColumnCount and later stages); 0 otherwise.
  std::size_t columns = 0;
};

/// Parses one line written by append_csv (without its '\n'; one trailing
/// '\r' is stripped) into `record`, whose views point into `line` or, for
/// a field that held a doubled quote, into `scratch`. Rejects a wrong
/// column count, bad enums, a bad timestamp and out-of-range civil date
/// fields; `record` is meaningful only when the diagnosis is kNone.
ParseDiagnosis parse_log_line(std::string_view line, LogRecordView& record,
                              std::string& scratch);

/// append_csv into a fresh string, without the '\n'.
std::string to_csv(const LogRecord& record);

/// parse_log_line into an owning record; nullopt on malformed input,
/// filling `diagnosis` (when given) with the reason.
std::optional<LogRecord> from_csv(std::string_view line,
                                  ParseDiagnosis* diagnosis = nullptr);

/// Cuts a byte stream into lines in place: bytes land in fixed-size
/// chunks and each complete line is handed out as a view into the buffer,
/// valid until the next space(). Only a line that straddles two chunks is
/// moved, to the front, before the next chunk lands behind it.
class LineBuffer {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Room for one chunk behind the partial line (moved to the front
  /// first); fill some of it, then call filled().
  std::span<char> space();
  void filled(std::size_t bytes) noexcept { end_ += bytes; }

  /// Pops the next complete line, without its '\n'.
  bool next(std::string_view& line) noexcept;
  /// The bytes after the last '\n'.
  std::string_view partial() const noexcept {
    return {bytes_.data() + begin_, end_ - begin_};
  }
  void clear() noexcept { begin_ = scanned_ = end_ = 0; }

 private:
  std::string bytes_;
  std::size_t begin_ = 0;    // first byte not handed out
  std::size_t scanned_ = 0;  // [begin_, scanned_) holds no '\n'
  std::size_t end_ = 0;      // end of the filled bytes
};

/// Writes header + all records, then flushes. Throws std::runtime_error
/// when the stream reports a write/flush failure — a full disk must not
/// yield a silently truncated, parseable-looking log.
void write_log(std::ostream& out, const std::vector<LogRecord>& records);

/// write_log to `path` through util::atomic_write_file: the file appears
/// complete or not at all (temp → flush → rename). Returns the committed
/// artifact's size + CRC32 for manifest bookkeeping; throws on any I/O
/// failure.
util::ArtifactInfo write_log_file(const std::string& path,
                                  const std::vector<LogRecord>& records);

/// Reads a stream written by write_log. Throws std::runtime_error on a
/// malformed header or row; the message names the 1-based line number, the
/// failure reason, and (for column-count mismatches) the actual count.
std::vector<LogRecord> read_log(std::istream& in);

/// What read_log_lenient saw: every skipped line accounted for by reason,
/// with the first offending line number per reason for fast triage.
struct LogReadStats {
  std::uint64_t lines = 0;       // lines read, including header and blanks
  std::uint64_t data_lines = 0;  // non-empty candidate record lines
  std::uint64_t recovered = 0;   // data lines that parsed
  std::uint64_t empty_lines = 0;
  bool header_present = false;  // first line matched log_csv_header()
  /// The file looks torn at the end: its final line lacks a newline, or
  /// the last data line was skipped for a short column count. Writers in
  /// this codebase always end with a newline, so either is the signature
  /// of a crash- or disk-full-truncated artifact; analyses consuming this
  /// log should surface the flag (analysis::request_coverage does).
  bool truncated_tail = false;
  /// Skip counts indexed by ParseError (slot 0, kNone, stays zero).
  std::array<std::uint64_t, kParseErrorCount> skipped{};
  /// 1-based stream line number of the first skip per reason; 0 = never.
  std::array<std::uint64_t, kParseErrorCount> first_error_line{};

  std::uint64_t skipped_total() const noexcept;
  /// Every data line is either recovered or skipped for exactly one reason.
  bool consistent() const noexcept {
    return recovered + skipped_total() == data_lines;
  }
  /// Human-readable multi-line rendering (the `inspect` subcommand's view).
  std::string summary() const;
};

/// What one line of a csv log is.
enum class LineKind : std::uint8_t { kHeader, kEmpty, kRecord, kSkipped };

/// One line of a csv log parsed without context: the pure half of
/// LogLineReader::frame, which the parse-ahead reader runs on workers.
struct ParsedLine {
  /// The line without its '\n' and one trailing '\r'.
  std::string_view text;
  /// Of `text` as a data line (kNone for an empty line, which is not
  /// parsed); `record` is meaningful when it is kNone.
  ParseDiagnosis diagnosis;
  LogRecordView record;
};

/// Strips one trailing '\r' from `line` (without its '\n') and parses the
/// rest, unless it is empty, into `out`; a field with a doubled quote
/// unescapes into `scratch`.
void parse_line(std::string_view line, ParsedLine& out, std::string& scratch);

/// The line framing every csv log reader shares: strips one trailing
/// '\r', recognizes the header on the first line only (a headerless log's
/// first line is tried as data), skips empty lines, parses every other
/// line and tallies it in stats() — recovered, or skipped by reason.
class LogLineReader {
 public:
  /// Frames the next line (without its '\n'): parse_line, then account.
  LineKind frame(std::string_view line) {
    parse_line(line, parsed_, scratch_);
    return account(parsed_);
  }
  /// The stateful half of frame(), in line order: classifies a line
  /// parse_line parsed and tallies it.
  LineKind account(const ParsedLine& line);

  /// The record of the last kRecord line frame() saw; its views are valid
  /// until the next frame() and while that line's bytes are unchanged.
  const LogRecordView& record() const noexcept { return parsed_.record; }
  /// Why the last line frame() saw failed, when it was kSkipped.
  const ParseDiagnosis& diagnosis() const noexcept {
    return parsed_.diagnosis;
  }
  const LogReadStats& stats() const noexcept { return stats_; }

  /// The next line is a file's first again (a rotated spool), or not (a
  /// tail resumed mid-file).
  void expect_header(bool expect) noexcept { expect_header_ = expect; }

  /// Sets stats().truncated_tail after the last line; `unterminated`: it
  /// lacked its '\n'.
  void finish(bool unterminated) noexcept;

 private:
  ParsedLine parsed_;  // frame()'s line
  std::string scratch_;
  LogReadStats stats_;
  bool expect_header_ = true;
  bool last_empty_ = true;
  ParseError last_data_error_ = ParseError::kNone;
  std::uint64_t last_data_error_line_ = 0;
};

/// Bytes the parse-ahead reader reads per window; a window ends at the
/// last newline in it, or holds one line longer than this.
inline constexpr std::size_t kParseWindowBytes = std::size_t{1} << 20;

/// The parse-ahead reader (DESIGN.md §4.15): reads `in` to its end in
/// windows of whole lines. While `threads - 1` workers parse window k+1
/// (parse_line over newline-aligned slices), the calling thread accounts
/// window k's lines in order through `reader` and calls on_line with each
/// line's kind and parse, whose views are valid during the call;
/// reader.stats() counts that line already. threads <= 1 runs the same
/// code inline.
/// Memory stays at two windows. Finishes `reader` (a final line without
/// its '\n' is a torn tail) and returns its stats. An exception from
/// on_line propagates once the window in flight is parsed; a read error
/// throws std::runtime_error. A non-null `obs` gets the counters
/// csv.lines, csv.records and csv.skipped and the stage timers
/// csv.parse_window (one worker's slice of a window) and csv.append_wait
/// (the calling thread waiting for the next window).
LogReadStats read_log_ahead(
    std::istream& in, std::size_t threads, LogLineReader& reader,
    const std::function<void(LineKind, const ParsedLine&)>& on_line,
    obs::Context* obs = nullptr);

/// The lenient read without the records: streams each recovered record
/// to `sink` as a view, valid during the call.
LogReadStats scan_log_lenient(
    std::istream& in, const std::function<void(const LogRecordView&)>& sink);

struct LenientLog {
  std::vector<LogRecord> records;
  LogReadStats stats;
};

/// Damage-tolerant reader for leak-grade logs: never throws on malformed
/// input. A wrong or missing header is recorded (not fatal) and the first
/// line is then re-tried as data; every malformed row is skipped and
/// tallied by reason in `stats`. Intact rows always survive.
LenientLog read_log_lenient(std::istream& in);

}  // namespace syrwatch::proxy
