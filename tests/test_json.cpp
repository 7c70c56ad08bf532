// The three JSON documents syrwatch writes, pinned byte for byte:
// syrwatch.metrics.v1 (obs::to_json), syrwatch.manifest.v1
// (durable::RunManifest::to_json) and syrwatch.stream.v1
// (analysis::stream_report_json). Dashboards, tools/ci-*.sh and
// bench/e2e read them with readers of their own, so a writer change must
// keep every byte. Then util::json's reader: its limits, and a manifest
// damaged at every byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/stream_report.h"
#include "durable/manifest.h"
#include "obs/export.h"
#include "policy/syria.h"
#include "util/json.h"

namespace {

using namespace syrwatch;

/// A name that needs every escape: ", \, \n, \r, \t, a control byte, and
/// UTF-8 (é), which passes through raw.
const std::string kOddName = "q\"b\\s\nn\rr\tt\x01u\xc3\xa9";
/// kOddName as the writers render it inside a JSON string.
const std::string kOddJson = R"(q\"b\\s\nn\rr\tt\u0001u)" "\xc3\xa9";

/// `text` with every "@ODD@" replaced by kOddJson.
std::string with_odd(std::string text) {
  for (auto at = text.find("@ODD@"); at != std::string::npos;
       at = text.find("@ODD@", at + kOddJson.size()))
    text.replace(at, 5, kOddJson);
  return text;
}

// --- syrwatch.metrics.v1 ---------------------------------------------------

TEST(JsonBytes, MetricsWithNothingRecorded) {
  EXPECT_EQ(obs::to_json({}, "generate", {}, 0.0),
            R"({
  "schema": "syrwatch.metrics.v1",
  "command": "generate",
  "counters": {},
  "gauges": {},
  "stages": {},
  "phases": [],
  "total_seconds": 0
}
)");
}

TEST(JsonBytes, MetricsWithEveryKindOfEntry) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters = {{"csv.records", 14226},
                       {"max", std::numeric_limits<std::uint64_t>::max()},
                       {kOddName, 7}};
  snapshot.gauges = {
      {"big", 2.5e12}, {"nano", 1e-9}, {"tenth", 0.1}, {"zero", 0.0}};
  snapshot.stages = {{"merge", 3, 2'000'000, 500'000, 1'000'000},
                     {kOddName, 1, 1, 1, 1}};
  const std::vector<obs::PhaseTiming> phases{{"load", 0.25, 14226},
                                             {kOddName, 0.0, 0}};
  EXPECT_EQ(obs::to_json(snapshot, kOddName, phases, 1.5), with_odd(R"({
  "schema": "syrwatch.metrics.v1",
  "command": "@ODD@",
  "counters": {
    "csv.records": 14226,
    "max": 18446744073709551615,
    "@ODD@": 7
  },
  "gauges": {
    "big": 2.5e+12,
    "nano": 1e-09,
    "tenth": 0.1,
    "zero": 0
  },
  "stages": {
    "merge": {"count": 3, "total_seconds": 0.002, "min_seconds": 0.0005, "max_seconds": 0.001},
    "@ODD@": {"count": 1, "total_seconds": 1e-09, "min_seconds": 1e-09, "max_seconds": 1e-09}
  },
  "phases": [
    {"name": "load", "seconds": 0.25, "items": 14226},
    {"name": "@ODD@", "seconds": 0, "items": 0}
  ],
  "total_seconds": 1.5
}
)"));
}

// --- syrwatch.manifest.v1 --------------------------------------------------

TEST(JsonBytes, ManifestWithoutArtifacts) {
  durable::RunManifest manifest;
  manifest.command = "generate";
  manifest.config_fingerprint = "0123456789abcdef";
  EXPECT_EQ(manifest.to_json(), R"({
  "schema": "syrwatch.manifest.v1",
  "state": "in_progress",
  "command": "generate",
  "seed": 0,
  "total_requests": 0,
  "fault_profile": "none",
  "apply_leak_filter": true,
  "threads": 0,
  "config_fingerprint": "0123456789abcdef",
  "next_batch": 0,
  "total_batches": 0,
  "artifacts": []
}
)");
}

durable::RunManifest sharded_manifest() {
  durable::RunManifest manifest;
  manifest.state = "complete";
  manifest.command = "generate";
  manifest.seed = std::numeric_limits<std::uint64_t>::max();
  manifest.total_requests = 20000;
  manifest.fault_profile = "sg47-outage";
  manifest.apply_leak_filter = false;
  manifest.threads = 4;
  manifest.config_fingerprint = "fedcba9876543210";
  manifest.next_batch = 21;
  manifest.total_batches = 21;
  manifest.workers = 4;
  manifest.degraded_shards = {"shard-01", "shard-03"};
  manifest.artifacts = {
      {"shard-00/manifest.json", "shard", 597, 0xdeadbeefu, -1},
      {"log_spool.csv", "spool", 1234, 0x0u,
       std::numeric_limits<std::int64_t>::min()},
      {"out dir/" + kOddName + ".csv", "output", 0, 0xffffffffu,
       std::numeric_limits<std::int64_t>::max()}};
  return manifest;
}

TEST(JsonBytes, ManifestWithWorkersDegradedShardsAndExtremeNumbers) {
  EXPECT_EQ(sharded_manifest().to_json(), with_odd(R"({
  "schema": "syrwatch.manifest.v1",
  "state": "complete",
  "command": "generate",
  "seed": 18446744073709551615,
  "total_requests": 20000,
  "fault_profile": "sg47-outage",
  "apply_leak_filter": false,
  "threads": 4,
  "config_fingerprint": "fedcba9876543210",
  "next_batch": 21,
  "total_batches": 21,
  "workers": 4,
  "degraded_shards": ["shard-01", "shard-03"],
  "artifacts": [
    {"path": "shard-00/manifest.json", "role": "shard", "bytes": 597, "crc32": "deadbeef", "batch": -1},
    {"path": "log_spool.csv", "role": "spool", "bytes": 1234, "crc32": "00000000", "batch": -9223372036854775808},
    {"path": "out dir/@ODD@.csv", "role": "output", "bytes": 0, "crc32": "ffffffff", "batch": 9223372036854775807}
  ]
}
)"));
}

// --- syrwatch.stream.v1 ----------------------------------------------------

TEST(JsonBytes, StreamOfAnEmptyAnalyzer) {
  analysis::StreamAnalyzer analyzer;
  EXPECT_EQ(
      analysis::stream_report_json(analyzer.snapshot()),
      R"({"schema":"syrwatch.stream.v1","records":0,"first_time":0,"last_time":0,)"
      R"("classes":{"allowed":0,"censored":0,"error":0,"proxied":0},)"
      R"("top_censored_domains":{"exact":true,"error_bound":0,"entries":[]},)"
      R"("censored_keywords":{"exact":true,"error_bound":0,"entries":[]},)"
      R"("categories":{"approx":true,"epsilon":0.00132729,"delta":0.0183156,)"
      R"("error_bound":0,"total":0,"entries":[]},)"
      R"("sample":{"seen":0,"size":0,"censored":0,"censored_share_lo":0,)"
      R"("censored_share_hi":0},)"
      R"("window":{"origin":0,"bin_seconds":300,"capacity_bins":288,)"
      R"("evicted_bins":0,"late_drops":0,"censored":[],"allowed":[],)"
      R"("total":[],"rcv":[]},)"
      R"("coverage":{"active_bins":0,"covered_bins":[0,0,0,0,0,0,0],)"
      R"("gaps":[]},)"
      R"("rfilter":{"censored_ips":0,"series":[],"has_traffic":[]},)"
      R"("spool":{"offset":0,"pending_bytes":0,"skipped_lines":0,"gaps":0}})");
}

TEST(JsonBytes, StreamOfAFixedCorpus) {
  // Small sketches and a 4-bin window, so the document shows saturated
  // tables, evicted bins, coverage gaps and an Rfilter bin.
  analysis::StreamReportOptions options;
  options.top_capacity = 2;
  options.top_k = 3;
  options.cm_width = 16;
  options.cm_depth = 2;
  options.reservoir_k = 3;
  options.sample_seed = 7;
  options.bin = {300};
  options.window_bins = 4;
  options.min_farm_bin_requests = 1;
  analysis::StreamAnalyzer analyzer{options};

  struct Row {
    std::int64_t time;
    std::size_t proxy;
    const char* host;
    const char* path;
    const char* query;
    const char* categories;
    proxy::TrafficClass cls;
    std::uint32_t ip;
  };
  using C = proxy::TrafficClass;
  constexpr std::size_t kTor = policy::kTorCensorProxy;
  const Row rows[] = {
      {1000, 0, "example.com", "/a", "", "none", C::kAllowed, 0},
      {1100, 1, "skype.com", "/download", "q=proxy", "unavailable",
       C::kCensored, 0},
      {1500, kTor, "10.0.0.1", "/", "", "none", C::kCensored, 0x0a000001},
      {1600, kTor, "10.0.0.1", "/", "", "none", C::kAllowed, 0x0a000001},
      {2200, 3, "bad\"domain.sy", "/x\\y", "", "Blocked \"sites\"\t",
       C::kCensored, 0},
      {2500, 2, "example.org", "/", "", "none", C::kError, 0},
      {2600, 1, "skype.com", "/call", "", "unavailable", C::kCensored, 0},
  };
  std::uint64_t ordinal = 0;
  for (const Row& row : rows) {
    analysis::Record record;
    record.ordinal = ordinal++;
    record.time = row.time;
    record.proxy_index = static_cast<std::uint8_t>(row.proxy);
    record.host = row.host;
    record.domain = row.host;
    record.path = row.path;
    record.query = row.query;
    record.categories = row.categories;
    record.cls = row.cls;
    record.host_is_ip = row.ip != 0;
    record.host_ip = row.ip;
    record.port = 9001;
    analyzer.ingest(record);
  }

  EXPECT_EQ(
      analysis::stream_report_json(analyzer.snapshot()),
      R"({"schema":"syrwatch.stream.v1","records":7,"first_time":1000,)"
      R"("last_time":2600,)"
      R"("classes":{"allowed":2,"censored":4,"error":1,"proxied":0},)"
      R"("top_censored_domains":{"exact":false,"error_bound":1,"entries":[)"
      R"({"key":"bad\"domain.sy","count":2,"error":1},)"
      R"({"key":"skype.com","count":2,"error":1}]},)"
      R"("censored_keywords":{"exact":false,"error_bound":2,"entries":[)"
      R"({"key":"call","count":3,"error":2},)"
      R"({"key":"skype","count":3,"error":2}]},)"
      R"("categories":{"approx":true,"epsilon":0.169893,"delta":0.135335,)"
      R"("error_bound":0.67957,"total":4,"entries":[)"
      R"({"label":"unavailable","estimate":2},)"
      R"({"label":"Blocked \"sites\"\t","estimate":1},)"
      R"({"label":"none","estimate":1}]},)"
      R"("sample":{"seen":7,"size":3,"censored":3,)"
      R"("censored_share_lo":0.438503,"censored_share_hi":1},)"
      R"("window":{"origin":1500,"bin_seconds":300,"capacity_bins":4,)"
      R"("evicted_bins":2,"late_drops":0,"censored":[1,0,1,1],)"
      R"("allowed":[1,0,0,0],"total":[2,0,1,2],"rcv":[0.5,0,1,0.5]},)"
      R"("coverage":{"active_bins":3,"covered_bins":[0,1,2,1,0,0,0],)"
      R"("gaps":[{"proxy":0,"start":1500,"end":2700},)"
      R"({"proxy":1,"start":1500,"end":2400},)"
      R"({"proxy":2,"start":2100,"end":2400},)"
      R"({"proxy":3,"start":1500,"end":1800},)"
      R"({"proxy":3,"start":2400,"end":2700},)"
      R"({"proxy":4,"start":1500,"end":2700},)"
      R"({"proxy":5,"start":1500,"end":2700},)"
      R"({"proxy":6,"start":1500,"end":2700}]},)"
      R"("rfilter":{"censored_ips":1,"series":[0],"has_traffic":[true]},)"
      R"("spool":{"offset":0,"pending_bytes":0,"skipped_lines":0,"gaps":0}})");
}

// --- util::json reader ----------------------------------------------------

/// The error RunManifest::parse throws for `text`; fails the test when it
/// throws nothing or something other than util::json::Error.
util::json::Error manifest_error(const std::string& text) {
  try {
    durable::RunManifest::parse(text);
  } catch (const util::json::Error& error) {
    return error;
  }
  ADD_FAILURE() << "parsed without error: " << text.substr(0, 80);
  return util::json::Error{"", 0};
}

TEST(JsonParse, DeepNestingIsATypedError) {
  // 10,000 bytes used to fail at the end of input, 30,000 overflowed the
  // stack; the depth limit stops all three at the same place.
  for (const std::size_t bytes : {std::size_t{10'000}, std::size_t{30'000},
                                  util::json::kMaxBytes}) {
    const util::json::Error error = manifest_error(std::string(bytes, '['));
    EXPECT_NE(std::string(error.what()).find("nested deeper than 64"),
              std::string::npos)
        << error.what();
    EXPECT_EQ(error.offset(), util::json::kMaxDepth);
  }
  const std::string deepest = std::string(util::json::kMaxDepth, '[') +
                              std::string(util::json::kMaxDepth, ']');
  EXPECT_EQ(util::json::parse(deepest).kind, util::json::Value::Kind::kArray);
  EXPECT_THROW(util::json::parse("[" + deepest + "]"), util::json::Error);
}

TEST(JsonParse, OversizedDocumentIsRefusedBeforeParsing) {
  std::string text = sharded_manifest().to_json();
  text.resize(util::json::kMaxBytes + 1, ' ');
  const util::json::Error error = manifest_error(text);
  EXPECT_NE(std::string(error.what()).find("over the 1048576-byte limit"),
            std::string::npos)
      << error.what();
  // Trailing whitespace inside the limit is fine.
  text.resize(util::json::kMaxBytes);
  EXPECT_EQ(durable::RunManifest::parse(text).seed,
            sharded_manifest().seed);
}

TEST(JsonParse, LoadRefusesAnOversizedFileByItsSize) {
  const auto path = std::filesystem::path(::testing::TempDir()) /
                    "syrwatch_json_oversized_manifest.json";
  {
    std::ofstream out{path, std::ios::binary};
    out << sharded_manifest().to_json()
        << std::string(util::json::kMaxBytes, ' ');
  }
  try {
    durable::RunManifest::load(path.string());
    ADD_FAILURE() << "oversized manifest loaded";
  } catch (const util::json::Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("over the 1048576-byte manifest limit"),
              std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

TEST(JsonParse, DuplicateKeysAreRefused) {
  const util::json::Error error = manifest_error(R"({"a": 1, "a": 2})");
  EXPECT_NE(std::string(error.what()).find("duplicate key \"a\""),
            std::string::npos)
      << error.what();
  EXPECT_EQ(error.offset(), 9u);

  std::string twice = sharded_manifest().to_json();
  const auto seed = twice.find("  \"seed\"");
  ASSERT_NE(seed, std::string::npos);
  twice.insert(seed, "  \"seed\": 1,\n");
  EXPECT_NE(std::string(manifest_error(twice).what()).find("duplicate key"),
            std::string::npos);
}

TEST(JsonParse, ErrorsNameTheOffsetAndTheField) {
  try {
    util::json::parse("[1, 2,]");
    ADD_FAILURE() << "parsed";
  } catch (const util::json::Error& error) {
    EXPECT_EQ(error.offset(), 6u);
    EXPECT_STREQ(error.what(), "json: unexpected character (offset 6)");
  }
  const util::json::Value root = util::json::parse(R"({"n": -3, "s": "x"})");
  EXPECT_EQ(root.i64_at("n"), -3);
  EXPECT_EQ(root.string_at("s"), "x");
  try {
    root.u64_at("n");
    ADD_FAILURE() << "negative read as u64";
  } catch (const util::json::Error& error) {
    EXPECT_EQ(error.offset(), 6u);
    EXPECT_NE(std::string(error.what()).find(
                  "field \"n\" is not a non-negative integer"),
              std::string::npos);
  }
  EXPECT_THROW(root.at("missing"), util::json::Error);
  EXPECT_THROW(root.bool_at("s"), util::json::Error);
}

/// Parses `text` as a manifest. A refusal must be util::json::Error (any
/// other exception escapes and fails the test); an accepted manifest must
/// survive its own round trip.
void expect_refused_or_round_trips(const std::string& text) {
  durable::RunManifest parsed;
  try {
    parsed = durable::RunManifest::parse(text);
  } catch (const util::json::Error&) {
    return;
  }
  const std::string json = parsed.to_json();
  EXPECT_EQ(durable::RunManifest::parse(json).to_json(), json) << text;
}

TEST(JsonParse, DamagedManifestIsRefusedOrRoundTrips) {
  const std::string manifest = sharded_manifest().to_json();
  for (std::size_t size = 0; size < manifest.size(); ++size)
    expect_refused_or_round_trips(manifest.substr(0, size));
  for (std::size_t at = 0; at < manifest.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x20, 0x80, 0xff}) {
      std::string flipped = manifest;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      expect_refused_or_round_trips(flipped);
    }
  }
}

}  // namespace
