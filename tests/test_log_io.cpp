// CSV log serialization: header, rendering, parsing, round-trips,
// rejection of malformed rows, and agreement of the codec with the
// vector-of-strings codec it replaced, kept below as a reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.h"
#include "proxy/log_io.h"
#include "util/rng.h"
#include "util/simtime.h"
#include "util/strings.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrwatch::proxy;

LogRecord sample_record() {
  LogRecord record;
  record.time = util::to_unix_seconds({2011, 8, 3, 8, 15, 30});
  record.proxy_index = 2;  // SG-44
  record.user_hash = 0xDEADBEEF12345678ULL;
  record.user_agent = "Mozilla/4.0 (compatible; MSIE 8.0)";
  record.method = "GET";
  record.url = *net::Url::parse(
      "http://www.facebook.com/plugins/like.php?href=x&channel=xd_proxy");
  record.categories = "unavailable";
  record.filter_result = FilterResult::kDenied;
  record.exception = ExceptionId::kPolicyDenied;
  record.status = 403;
  return record;
}

TEST(LogIo, HeaderListsPaperFields) {
  const auto header = log_csv_header();
  for (const char* field :
       {"cs-host", "cs-uri-path", "cs-uri-query", "cs-uri-ext",
        "cs-user-agent", "cs-categories", "sc-filter-result",
        "x-exception-id", "s-ip", "c-ip"}) {
    EXPECT_NE(header.find(field), std::string::npos) << field;
  }
}

TEST(LogIo, RendersKnownRecord) {
  const auto line = to_csv(sample_record());
  EXPECT_NE(line.find("2011-08-03"), std::string::npos);
  EXPECT_NE(line.find("08:15:30"), std::string::npos);
  EXPECT_NE(line.find("82.137.200.44"), std::string::npos);
  EXPECT_NE(line.find("www.facebook.com"), std::string::npos);
  EXPECT_NE(line.find("policy_denied"), std::string::npos);
  EXPECT_NE(line.find("DENIED"), std::string::npos);
  EXPECT_NE(line.find("php"), std::string::npos);  // cs-uri-ext derived
}

TEST(LogIo, RoundTrip) {
  const auto record = sample_record();
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->time, record.time);
  EXPECT_EQ(parsed->proxy_index, record.proxy_index);
  EXPECT_EQ(parsed->user_hash, record.user_hash);
  EXPECT_EQ(parsed->user_agent, record.user_agent);
  EXPECT_EQ(parsed->url, record.url);
  EXPECT_EQ(parsed->categories, record.categories);
  EXPECT_EQ(parsed->filter_result, record.filter_result);
  EXPECT_EQ(parsed->exception, record.exception);
  EXPECT_EQ(parsed->status, record.status);
  EXPECT_FALSE(parsed->dest_ip.has_value());
}

TEST(LogIo, SuppressedUserRendersAsZeros) {
  LogRecord record = sample_record();
  record.user_hash = 0;
  const auto line = to_csv(record);
  EXPECT_NE(line.find("0.0.0.0"), std::string::npos);
  const auto parsed = from_csv(line);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->user_hash, 0u);
}

TEST(LogIo, DestIpRoundTrip) {
  LogRecord record = sample_record();
  record.url = *net::Url::parse("http://84.229.1.2/");
  record.dest_ip = net::Ipv4Addr{84, 229, 1, 2};
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->dest_ip);
  EXPECT_EQ(parsed->dest_ip->to_string(), "84.229.1.2");
}

TEST(LogIo, RejectsMalformedRows) {
  EXPECT_FALSE(from_csv(""));
  EXPECT_FALSE(from_csv("a,b,c"));
  auto line = to_csv(sample_record());
  // Corrupt the s-ip into a non-proxy address.
  auto corrupted = line;
  const auto pos = corrupted.find("82.137.200.44");
  corrupted.replace(pos, 13, "82.137.200.99");
  EXPECT_FALSE(from_csv(corrupted));
}

TEST(LogIo, StreamRoundTrip) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 20; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    record.proxy_index = static_cast<std::uint8_t>(i % 7);
    records.push_back(record);
  }
  std::stringstream stream;
  write_log(stream, records);
  const auto parsed = read_log(stream);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].time, records[i].time);
    EXPECT_EQ(parsed[i].proxy_index, records[i].proxy_index);
  }
}

TEST(LogIo, FileRoundTripIsAtomicAndDigested) {
  std::vector<LogRecord> records;
  for (int i = 0; i < 5; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    records.push_back(record);
  }
  const std::string path =
      ::testing::TempDir() + "/syrwatch_log_io_roundtrip.csv";
  const auto info = write_log_file(path, records);
  EXPECT_GT(info.bytes, 0u);
  std::ifstream in{path};
  const auto parsed = read_log(in);
  EXPECT_EQ(parsed.size(), records.size());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(LogIo, ReadRejectsBadHeader) {
  std::stringstream stream;
  stream << "wrong,header\n";
  EXPECT_THROW(read_log(stream), std::runtime_error);
}

TEST(LogIo, ReadRejectsBadRow) {
  std::stringstream stream;
  stream << log_csv_header() << "\n" << "not,a,valid,row\n";
  EXPECT_THROW(read_log(stream), std::runtime_error);
}

TEST(LogIo, QueryWithCommasSurvives) {
  LogRecord record = sample_record();
  record.url.query = "a=1,2,3&b=\"quoted\"";
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->url.query, record.url.query);
}

TEST(LogIo, ReadErrorNamesLineNumber) {
  std::stringstream stream;
  stream << log_csv_header() << "\n"
         << to_csv(sample_record()) << "\n"
         << "not,a,valid,row\n";
  try {
    read_log(stream);
    FAIL() << "expected read_log to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // Header is line 1, the good record line 2, the bad row line 3.
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("got 4"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 17"), std::string::npos) << what;
  }
}

TEST(LogIo, DiagnosisReportsColumnCount) {
  ParseDiagnosis diagnosis;
  EXPECT_FALSE(from_csv("a,b,c", &diagnosis));
  EXPECT_EQ(diagnosis.error, ParseError::kColumnCount);
  EXPECT_EQ(diagnosis.columns, 3u);
}

TEST(LogIo, DiagnosisClearsOnSuccess) {
  ParseDiagnosis diagnosis;
  diagnosis.error = ParseError::kColumnCount;
  EXPECT_TRUE(from_csv(to_csv(sample_record()), &diagnosis));
  EXPECT_EQ(diagnosis.error, ParseError::kNone);
}

// Timestamp fields must be in civil range *and* denote a real date;
// std::from_chars-based parsing also rejects signs and trailing junk.
TEST(LogIo, RejectsOutOfRangeCivilFields) {
  const auto line = to_csv(sample_record());
  const std::string date = "2011-08-03";
  const std::string time = "08:15:30";
  const auto expect_rejected = [&](const std::string& needle,
                                   const std::string& replacement) {
    auto corrupted = line;
    const auto pos = corrupted.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle;
    corrupted.replace(pos, needle.size(), replacement);
    ParseDiagnosis diagnosis;
    EXPECT_FALSE(from_csv(corrupted, &diagnosis)) << replacement;
    EXPECT_EQ(diagnosis.error, ParseError::kBadTimestamp) << replacement;
  };
  expect_rejected(date, "2011-13-03");  // month 13
  expect_rejected(date, "2011-00-03");  // month 0
  expect_rejected(date, "2011-08-32");  // day 32
  expect_rejected(date, "2011-08--3");  // negative day
  expect_rejected(date, "2011-02-30");  // no Feb 30
  expect_rejected(date, "2011-8x-03");  // trailing junk in a field
  expect_rejected(time, "25:15:30");    // hour 25
  expect_rejected(time, "08:61:30");    // minute 61
  expect_rejected(time, "08:15:77");    // second 77
}

TEST(LogIo, AcceptsCivilEdgeValues) {
  auto record = sample_record();
  record.time = util::to_unix_seconds({2011, 12, 31, 23, 59, 59});
  const auto parsed = from_csv(to_csv(record));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->time, record.time);
}

TEST(LogIo, LenientReaderRecoversAroundDamage) {
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  for (int i = 0; i < 10; ++i) {
    LogRecord record = sample_record();
    record.time += i * 60;
    stream << to_csv(record) << "\n";
  }
  stream << "garbage line\n";
  stream << "\n";
  stream << to_csv(sample_record()).substr(0, 25) << "\n";  // truncated
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 10u);
  EXPECT_TRUE(log.stats.header_present);
  EXPECT_EQ(log.stats.empty_lines, 1u);
  EXPECT_EQ(log.stats.recovered, 10u);
  EXPECT_EQ(log.stats.skipped_total(), 2u);
  EXPECT_TRUE(log.stats.consistent());
}

TEST(LogIo, LenientReaderWithoutHeaderStillParses) {
  std::stringstream stream;
  stream << to_csv(sample_record()) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_FALSE(log.stats.header_present);
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_TRUE(log.stats.consistent());
}

TEST(LogIo, LenientReaderCountsMalformedQuoteSkips) {
  // "ab"x-style damage: a closing quote followed by garbage. The line must
  // be skipped (not glued back together) and tallied under its own reason.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  const std::string good = to_csv(sample_record());
  stream << good << "\n";
  stream << "\"2011-08-03\"x" << good.substr(10) << "\n";
  stream << good << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 2u);
  const auto reason = static_cast<std::size_t>(ParseError::kMalformedQuote);
  EXPECT_EQ(log.stats.skipped[reason], 1u);
  EXPECT_EQ(log.stats.first_error_line[reason], 3u);
  EXPECT_TRUE(log.stats.consistent());
  EXPECT_NE(log.stats.summary().find("malformed quote"), std::string::npos);
}

TEST(LogIo, CrlfTerminatedLogParses) {
  // Externally produced logs are routinely CRLF-terminated; the trailing
  // '\r' must not corrupt the last field (r-ip).
  const auto record = sample_record();
  std::stringstream stream;
  stream << log_csv_header() << "\r\n" << to_csv(record) << "\r\n";
  const auto log = read_log_lenient(stream);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records.front().time, record.time);
  EXPECT_EQ(log.records.front().url, record.url);
  EXPECT_EQ(log.stats.skipped_total(), 0u);
}

// --- truncated-tail detection (torn final record = partial artifact) ------

TEST(LogIo, CleanLogHasNoTruncatedTail) {
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_FALSE(log.stats.truncated_tail);
  EXPECT_EQ(log.stats.summary().find("TRUNCATED"), std::string::npos);
}

TEST(LogIo, MissingFinalNewlineFlagsTruncatedTail) {
  // A parseable final line without its newline: the classic signature of
  // a write cut off between record body and terminator.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()) << "\n";
  stream << to_csv(sample_record());  // no trailing '\n'
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 2u);
  EXPECT_TRUE(log.stats.truncated_tail);
  EXPECT_NE(log.stats.summary().find("TRUNCATED"), std::string::npos);
}

TEST(LogIo, ShortFinalRecordFlagsTruncatedTail) {
  // Newline-terminated but column-short final line — a torn write that
  // happened to end on a '\n' inside the record.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()) << "\n";
  stream << to_csv(sample_record()).substr(0, 30) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_TRUE(log.stats.truncated_tail);
}

TEST(LogIo, MidFileDamageIsNotATruncatedTail) {
  // Damage followed by healthy records is corruption, not truncation.
  std::stringstream stream;
  stream << log_csv_header() << "\n";
  stream << to_csv(sample_record()).substr(0, 30) << "\n";
  stream << to_csv(sample_record()) << "\n";
  const auto log = read_log_lenient(stream);
  EXPECT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.stats.skipped_total(), 1u);
  EXPECT_FALSE(log.stats.truncated_tail);
}

// --- the codec against its reference ----------------------------------------

// The vector-of-strings codec the view codec replaced (csv_join over
// snprintf'd fields; csv_parse with exceptions, then the field checks),
// kept verbatim in behavior as the definition the new one must match.
namespace reference {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string csv_join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += csv_escape(fields[i]);
  }
  return out;
}

struct CsvParseError {
  ParseError kind;
};

std::vector<std::string> csv_parse(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool quote_closed = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
          quote_closed = true;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
      quote_closed = false;
    } else if (quote_closed) {
      throw CsvParseError{ParseError::kMalformedQuote};
    } else if (c == '"') {
      if (!current.empty()) throw CsvParseError{ParseError::kMalformedQuote};
      in_quotes = true;
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) throw CsvParseError{ParseError::kUnbalancedQuote};
  fields.push_back(std::move(current));
  return fields;
}

std::string field_or_dash(std::string_view value) {
  return value.empty() ? "-" : std::string(value);
}

std::string to_csv(const LogRecord& record) {
  const util::CivilDateTime c = util::to_civil(record.time);
  char date[16], clock[16], chash[24];
  std::snprintf(date, sizeof date, "%04d-%02d-%02d", c.year, c.month, c.day);
  std::snprintf(clock, sizeof clock, "%02d:%02d:%02d", c.hour, c.minute,
                c.second);
  if (record.user_hash == 0) {
    std::snprintf(chash, sizeof chash, "0.0.0.0");
  } else {
    std::snprintf(chash, sizeof chash, "%016llx",
                  static_cast<unsigned long long>(record.user_hash));
  }
  const std::vector<std::string> fields = {
      date,
      clock,
      record.proxy_address().to_string(),
      chash,
      record.method,
      std::string(net::to_string(record.url.scheme)),
      record.url.host,
      std::to_string(record.url.port),
      field_or_dash(record.url.path),
      field_or_dash(record.url.query),
      field_or_dash(record.url.extension()),
      field_or_dash(record.user_agent),
      field_or_dash(record.categories),
      std::to_string(record.status),
      std::string(to_string(record.filter_result)),
      std::string(to_string(record.exception)),
      record.dest_ip ? record.dest_ip->to_string() : "-",
  };
  return csv_join(fields);
}

std::string dash_to_empty(std::string value) {
  return value == "-" ? std::string{} : value;
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

std::optional<int> parse_civil_field(std::string_view text, int lo, int hi) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

std::optional<std::int64_t> parse_timestamp(const std::string& date,
                                            const std::string& clock) {
  const auto date_parts = util::split(date, '-');
  const auto time_parts = util::split(clock, ':');
  if (date_parts.size() != 3 || time_parts.size() != 3) return std::nullopt;
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
  const util::CivilDateTime back = util::to_civil(t);
  if (back.year != c.year || back.month != c.month || back.day != c.day)
    return std::nullopt;
  return t;
}

std::optional<LogRecord> from_csv(const std::string& line,
                                  ParseDiagnosis& diagnosis) {
  diagnosis = {};
  std::vector<std::string> f;
  try {
    f = csv_parse(line);
  } catch (const CsvParseError& error) {
    diagnosis.error = error.kind;
    return std::nullopt;
  }
  diagnosis.columns = f.size();
  if (f.size() != 17) {
    diagnosis.error = ParseError::kColumnCount;
    return std::nullopt;
  }
  LogRecord record;
  const auto time = parse_timestamp(f[0], f[1]);
  if (!time) {
    diagnosis.error = ParseError::kBadTimestamp;
    return std::nullopt;
  }
  record.time = *time;
  const auto s_ip = net::Ipv4Addr::parse(f[2]);
  if (!s_ip || s_ip->octet(3) < 42 || s_ip->octet(3) > 48) {
    diagnosis.error = ParseError::kBadAddress;
    return std::nullopt;
  }
  record.proxy_index = static_cast<std::uint8_t>(s_ip->octet(3) - 42);
  diagnosis.error = ParseError::kBadField;
  if (f[3] == "0.0.0.0") {
    record.user_hash = 0;
  } else {
    const auto hash = parse_u64(f[3], 16);
    if (!hash) return std::nullopt;
    record.user_hash = *hash;
  }
  record.method = f[4];
  const auto scheme = net::parse_scheme(f[5]);
  if (!scheme) return std::nullopt;
  record.url.scheme = *scheme;
  record.url.host = f[6];
  const auto port = parse_u64(f[7]);
  if (!port || *port > 65535) return std::nullopt;
  record.url.port = static_cast<std::uint16_t>(*port);
  record.url.path = dash_to_empty(f[8]);
  record.url.query = dash_to_empty(f[9]);
  record.user_agent = dash_to_empty(f[11]);
  record.categories = dash_to_empty(f[12]);
  const auto status = parse_u64(f[13]);
  if (!status || *status > 999) return std::nullopt;
  record.status = static_cast<std::uint16_t>(*status);
  const auto result = parse_filter_result(f[14]);
  if (!result) return std::nullopt;
  record.filter_result = *result;
  const auto exception = parse_exception(f[15]);
  if (!exception) return std::nullopt;
  record.exception = *exception;
  if (f[16] != "-") {
    const auto dest = net::Ipv4Addr::parse(f[16]);
    if (!dest) return std::nullopt;
    record.dest_ip = *dest;
  }
  diagnosis.error = ParseError::kNone;
  return record;
}

}  // namespace reference

std::vector<LogRecord> generated_log() {
  workload::ScenarioConfig config;
  config.total_requests = 20'000;
  config.user_population = 4'000;
  config.catalog_tail = 3'000;
  config.torrent_contents = 500;
  workload::SyriaScenario scenario{config};
  std::vector<LogRecord> records;
  scenario.run([&](const LogRecord& record) { records.push_back(record); });
  return records;
}

/// Records covering what the generator never writes: quoting, '\r',
/// empty fields, and the numeric extremes of every field.
std::vector<LogRecord> hand_built_records() {
  std::vector<LogRecord> records;
  for (const char special : {',', '"', '\r'}) {
    const std::string text = std::string("a") + special + "b";
    LogRecord agent = sample_record();
    agent.user_agent = "UA " + text;
    LogRecord path = sample_record();
    path.url.path = "/" + text + ".php";
    LogRecord query = sample_record();
    query.url.query = "q=" + text;
    LogRecord all = sample_record();
    all.user_agent = text + text;
    all.url.path = "/x" + text;
    all.url.query = text + "=" + text;
    for (LogRecord* record : {&agent, &path, &query, &all})
      records.push_back(*record);
  }
  LogRecord empty = sample_record();
  empty.user_agent.clear();
  empty.url.path.clear();
  empty.url.query.clear();
  empty.categories.clear();
  empty.method.clear();
  empty.url.host.clear();
  records.push_back(empty);
  LogRecord dash = sample_record();
  dash.url.path = "-";
  dash.user_agent = "-";
  records.push_back(dash);
  for (const std::uint64_t hash :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}}) {
    LogRecord record = sample_record();
    record.user_hash = hash;
    records.push_back(record);
  }
  LogRecord dest = sample_record();
  dest.url = *net::Url::parse("http://84.229.1.2/");
  dest.dest_ip = net::Ipv4Addr{84, 229, 1, 2};
  records.push_back(dest);
  LogRecord zero_dest = sample_record();
  zero_dest.dest_ip = net::Ipv4Addr{0u};
  records.push_back(zero_dest);
  for (const std::uint16_t port : {std::uint16_t{0}, std::uint16_t{65535}}) {
    LogRecord record = sample_record();
    record.url.port = port;
    records.push_back(record);
  }
  for (const std::uint16_t status : {std::uint16_t{0}, std::uint16_t{999}}) {
    LogRecord record = sample_record();
    record.status = status;
    records.push_back(record);
  }
  for (const std::uint8_t proxy : {0, 6, 250}) {
    LogRecord record = sample_record();
    record.proxy_index = proxy;
    records.push_back(record);
  }
  for (const std::int64_t time :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{253402300799},
        std::int64_t{253402300800}}) {
    LogRecord record = sample_record();
    record.time = time;
    records.push_back(record);
  }
  LogRecord no_extension = sample_record();
  no_extension.url.path = "/dir.d/file";
  records.push_back(no_extension);
  return records;
}

TEST(LogCodec, AppendCsvMatchesReferenceOnAGeneratedLog) {
  const auto records = generated_log();
  ASSERT_GT(records.size(), 10'000u);
  std::string text;  // one buffer, appended to: exactly what writers do
  std::string want;
  for (const LogRecord& record : records) {
    append_csv(view_of(record), text);
    want += reference::to_csv(record);
    want += '\n';
  }
  EXPECT_EQ(text, want);
}

TEST(LogCodec, AppendCsvMatchesReferenceOnHandBuiltRecords) {
  for (const LogRecord& record : hand_built_records()) {
    std::string line = "prefix,";
    append_csv(view_of(record), line);
    EXPECT_EQ(line, "prefix," + reference::to_csv(record) + "\n");
    EXPECT_EQ(to_csv(record), reference::to_csv(record));
  }
}

void expect_same_record(const LogRecord& want, const LogRecordView& got,
                        const std::string& line) {
  EXPECT_EQ(got.time, want.time) << line;
  EXPECT_EQ(got.proxy_index, want.proxy_index) << line;
  EXPECT_EQ(got.user_hash, want.user_hash) << line;
  EXPECT_EQ(got.user_agent, want.user_agent) << line;
  EXPECT_EQ(got.method, want.method) << line;
  EXPECT_EQ(got.scheme, want.url.scheme) << line;
  EXPECT_EQ(got.host, want.url.host) << line;
  EXPECT_EQ(got.port, want.url.port) << line;
  EXPECT_EQ(got.path, want.url.path) << line;
  EXPECT_EQ(got.query, want.url.query) << line;
  EXPECT_EQ(got.categories, want.categories) << line;
  EXPECT_EQ(got.filter_result, want.filter_result) << line;
  EXPECT_EQ(got.exception, want.exception) << line;
  EXPECT_EQ(got.status, want.status) << line;
  EXPECT_EQ(got.dest_ip, want.dest_ip) << line;
}

/// parse_log_line and the reference agree on `line`: the same diagnosis,
/// and on success the same fields.
void expect_parse_agrees(const std::string& line, LogRecordView& view,
                         std::string& scratch) {
  ParseDiagnosis want;
  const auto record = reference::from_csv(line, want);
  const ParseDiagnosis got = parse_log_line(line, view, scratch);
  ASSERT_EQ(got.error, want.error) << line;
  ASSERT_EQ(got.columns, want.columns) << line;
  if (record) expect_same_record(*record, view, line);
}

/// Lines of a generated log and hand-built records, and 12,000 seeded
/// mutations of them: truncations, byte flips, splices, deleted columns,
/// stray, doubled and misplaced quotes, and '\r' tails.
struct MutationCorpus {
  std::vector<std::string> lines;
  std::vector<std::string> mutated;
};

MutationCorpus seeded_mutations() {
  MutationCorpus corpus;
  std::vector<std::string>& lines = corpus.lines;
  const auto generated = generated_log();
  for (std::size_t i = 0; i < generated.size(); i += 10)
    lines.push_back(reference::to_csv(generated[i]));
  for (const LogRecord& record : hand_built_records())
    lines.push_back(reference::to_csv(record));

  util::Rng rng{0xC0DEC};
  const auto at = [&](const std::string& line) {
    return static_cast<std::size_t>(rng.uniform(line.size() + 1));
  };
  const auto quote_positions = [](const std::string& line) {
    std::vector<std::size_t> quotes;
    for (std::size_t i = 0; i < line.size(); ++i)
      if (line[i] == '"') quotes.push_back(i);
    return quotes;
  };
  const auto mutate = [&](std::string line) {
    switch (rng.uniform(9)) {
      case 0:  // truncation (torn write)
        line.resize(at(line));
        break;
      case 1:  // byte flip
        if (!line.empty())
          line[rng.uniform(line.size())] = static_cast<char>(rng.uniform(256));
        break;
      case 2: {  // field splice: graft the tail of another line mid-field
        const auto& donor = lines[rng.uniform(lines.size())];
        line = line.substr(0, at(line)) + donor.substr(at(donor));
        break;
      }
      case 3:  // field deletion: drop one comma-separated column
        if (const auto comma = line.find(','); comma != std::string::npos) {
          const auto next = line.find(',', comma + 1);
          line.erase(comma, next == std::string::npos ? std::string::npos
                                                      : next - comma);
        }
        break;
      case 4:  // insert a quote
        line.insert(at(line), 1, '"');
        break;
      case 5: {  // double a quote (or insert a doubled pair)
        const auto quotes = quote_positions(line);
        line.insert(quotes.empty() ? at(line)
                                   : quotes[rng.uniform(quotes.size())],
                    quotes.empty() ? "\"\"" : "\"");
        break;
      }
      case 6: {  // bytes after a closing quote
        auto quotes = quote_positions(line);
        if (quotes.empty()) {
          // Quote one field first, so there is a closing quote.
          const auto comma = line.find(',', at(line));
          const auto end = comma == std::string::npos ? line.size() : comma;
          const auto start = line.rfind(',', end == 0 ? 0 : end - 1);
          const auto begin =
              start == std::string::npos || start >= end ? 0 : start + 1;
          line.insert(end, 1, '"');
          line.insert(begin, 1, '"');
          quotes = quote_positions(line);
        }
        const char junk[] = {'x', ' ', '"', '\r', ';'};
        line.insert(quotes.back() + 1, 1, junk[rng.uniform(sizeof junk)]);
        break;
      }
      case 7:
        line += '\r';
        break;
      default:
        line += "\r\r";
        break;
    }
    return line;
  };

  for (int i = 0; i < 12'000; ++i) {
    std::string line = lines[rng.uniform(lines.size())];
    const int rounds = rng.bernoulli(0.3) ? 2 : 1;
    for (int r = 0; r < rounds; ++r) line = mutate(std::move(line));
    corpus.mutated.push_back(std::move(line));
  }
  return corpus;
}

TEST(LogCodec, ParseMatchesReferenceOnSeededMutations) {
  const MutationCorpus corpus = seeded_mutations();
  LogRecordView view;
  std::string scratch;
  std::size_t checked = 0;
  std::size_t parsed = 0;
  for (const std::string& line : corpus.mutated) {
    expect_parse_agrees(line, view, scratch);
    if (::testing::Test::HasFatalFailure()) return;
    ++checked;
    ParseDiagnosis diagnosis;
    if (from_csv(line, &diagnosis)) ++parsed;
  }
  for (const std::string& line : corpus.lines) {
    expect_parse_agrees(line, view, scratch);
    expect_parse_agrees(line + "\r", view, scratch);
  }
  EXPECT_GE(checked, 10'000u);
  // The mutations must leave some lines intact and damage the rest.
  EXPECT_GT(parsed, 100u);
  EXPECT_LT(parsed, checked);
}

TEST(LogCodec, UnclosedQuoteOnAnOverlongLineIsAQuoteError) {
  // 18 fields and an unclosed quote: a splitter that stops at the 17th
  // field would call this a column count, the reference calls it a quote.
  const std::string line = to_csv(sample_record()) + ",\"never closed";
  LogRecordView view;
  std::string scratch;
  const ParseDiagnosis diagnosis = parse_log_line(line, view, scratch);
  EXPECT_EQ(diagnosis.error, ParseError::kUnbalancedQuote);
  EXPECT_EQ(diagnosis.columns, 0u);
  expect_parse_agrees(line, view, scratch);
  expect_parse_agrees(to_csv(sample_record()) + ",x,\"a\"b", view, scratch);
}

TEST(LogCodec, DoubledQuotesInTwoFieldsKeepBothViews) {
  // Both fields unescape into scratch, the path first: the path's view
  // must survive the agent's unescaping, which outgrows anything the
  // path alone would have made room for.
  LogRecord record = sample_record();
  record.url.path = "/say/\"" + std::string(40, 'p') + "\"/x.php";
  record.user_agent = "Mozilla \"" + std::string(3000, 'a') + "\" agent";
  const std::string line = to_csv(record);
  LogRecordView view;
  std::string scratch;  // starts with no capacity
  ASSERT_EQ(parse_log_line(line, view, scratch).error, ParseError::kNone);
  EXPECT_EQ(view.user_agent, record.user_agent);
  EXPECT_EQ(view.path, record.url.path);
  EXPECT_EQ(view.query, record.url.query);
}

TEST(LogCodec, LineBufferHandsOutLinesAcrossChunks) {
  // Lines longer than a chunk and lines straddling chunk borders come out
  // whole; a final line without '\n' is reported as such.
  std::string text;
  std::vector<std::string> want;
  for (int i = 0; i < 50; ++i) {
    want.push_back(std::string(static_cast<std::size_t>(i * 4099 % 150'000),
                               static_cast<char>('a' + i % 26)));
    text += want.back() + "\n";
  }
  want.push_back("tail");
  text += "tail";
  LineBuffer lines;
  std::vector<std::string> got;
  std::string_view line;
  for (std::size_t at = 0; at < text.size();) {
    const std::span<char> space = lines.space();
    const std::size_t n = std::min(space.size(), text.size() - at);
    std::copy_n(text.data() + at, n, space.data());
    lines.filled(n);
    at += n;
    while (lines.next(line)) got.emplace_back(line);
  }
  got.emplace_back(lines.partial());
  EXPECT_EQ(got, want);
}

// --- the parse-ahead reader ------------------------------------------------

/// What a read of a whole log yields: every record as csv, and the stats.
struct WholeRead {
  std::string records;
  LogReadStats stats;
};

WholeRead read_ahead(const std::string& text, std::size_t threads,
                     obs::Context* obs = nullptr) {
  std::istringstream in{text};
  LogLineReader reader;
  WholeRead out;
  out.stats = read_log_ahead(
      in, threads, reader,
      [&](LineKind kind, const ParsedLine& line) {
        if (kind == LineKind::kRecord) append_csv(line.record, out.records);
      },
      obs);
  return out;
}

/// The serial loop the parse-ahead reader replaced: frame each line, in
/// order, straight from the text.
WholeRead read_serially(std::string_view text) {
  LogLineReader reader;
  WholeRead out;
  const bool unterminated = !text.empty() && text.back() != '\n';
  while (!text.empty()) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    if (reader.frame(text.substr(0, end)) == LineKind::kRecord)
      append_csv(reader.record(), out.records);
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  reader.finish(unterminated);
  out.stats = reader.stats();
  return out;
}

void expect_same_stats(const LogReadStats& want, const LogReadStats& got) {
  EXPECT_EQ(got.lines, want.lines);
  EXPECT_EQ(got.data_lines, want.data_lines);
  EXPECT_EQ(got.recovered, want.recovered);
  EXPECT_EQ(got.empty_lines, want.empty_lines);
  EXPECT_EQ(got.header_present, want.header_present);
  EXPECT_EQ(got.truncated_tail, want.truncated_tail);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.first_error_line, want.first_error_line);
}

TEST(ParseAhead, SeededMutationsReadTheSameAtAnyThreadCount) {
  const MutationCorpus corpus = seeded_mutations();
  std::string text = log_csv_header() + "\n";
  while (text.size() <= 2 * kParseWindowBytes)
    for (const std::string& line : corpus.mutated) text += line + "\n";
  text += corpus.lines.front().substr(0, 40);  // a torn final line

  const WholeRead reference = read_serially(text);
  EXPECT_TRUE(reference.stats.truncated_tail);
  EXPECT_GT(reference.stats.skipped_total(), 1000u);
  EXPECT_GT(reference.stats.recovered, 1000u);
  for (const std::size_t threads : {1, 2, 4}) {
    const WholeRead got = read_ahead(text, threads);
    EXPECT_EQ(got.records, reference.records) << threads;
    expect_same_stats(reference.stats, got.stats);
    EXPECT_TRUE(got.stats.consistent());
  }
}

TEST(ParseAhead, HandsOutLinesLongerThanAWindowWhole) {
  std::string text;
  std::vector<std::string> want;
  for (int i = 0; i < 40; ++i) {
    const std::size_t size =
        i == 17 ? 2 * kParseWindowBytes + 5
                : static_cast<std::size_t>(i * 104'729 % 300'000);
    want.push_back(std::string(size, static_cast<char>('a' + i % 26)));
    text += want.back() + (i % 3 == 0 ? "\r\n" : "\n");
  }
  want.push_back("tail");
  text += "tail";
  for (const std::size_t threads : {1, 3}) {
    std::istringstream in{text};
    LogLineReader reader;
    std::vector<std::string> got;
    const LogReadStats stats =
        read_log_ahead(in, threads, reader,
                       [&](LineKind, const ParsedLine& line) {
                         got.emplace_back(line.text);
                       });
    EXPECT_EQ(got, want) << threads;
    EXPECT_EQ(stats.lines, want.size());
    EXPECT_TRUE(stats.truncated_tail);
  }
}

TEST(ParseAhead, EmptyAndNewlineTerminatedStreams) {
  EXPECT_EQ(read_ahead("", 2).stats.lines, 0u);
  EXPECT_FALSE(read_ahead("", 2).stats.truncated_tail);
  const std::string log =
      log_csv_header() + "\n" + to_csv(sample_record()) + "\n";
  const WholeRead read = read_ahead(log, 4);
  EXPECT_EQ(read.stats.lines, 2u);
  EXPECT_EQ(read.stats.recovered, 1u);
  EXPECT_FALSE(read.stats.truncated_tail);
}

TEST(ParseAhead, ReportsItsCountersAndStages) {
  const std::string log = log_csv_header() + "\n" +
                          to_csv(sample_record()) + "\n\ngarbage\n" +
                          to_csv(sample_record()) + "\n";
  obs::MetricsRegistry registry;
  obs::Context context{&registry};
  read_ahead(log, 3, &context);
  EXPECT_EQ(registry.counter("csv.lines").value(), 5u);
  EXPECT_EQ(registry.counter("csv.records").value(), 2u);
  EXPECT_EQ(registry.counter("csv.skipped").value(), 1u);
  // Two windows (the second finds the end of the stream), two workers
  // each; only the first is followed by a wait.
  EXPECT_EQ(registry.stage("csv.parse_window").count(), 4u);
  EXPECT_EQ(registry.stage("csv.append_wait").count(), 1u);
}

}  // namespace
