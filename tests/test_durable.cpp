// Durability layer: checksums, atomic file I/O, run manifests with
// integrity verification, and crash-safe checkpoint/resume — including the
// headline contract that an interrupted-then-resumed run emits a log
// bit-identical to an uninterrupted one at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "durable/checkpoint.h"
#include "durable/manifest.h"
#include "proxy/log_io.h"
#include "util/atomic_io.h"
#include "util/cancel.h"
#include "util/checksum.h"
#include "util/vfs.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
namespace fs = std::filesystem;

// --- fixtures --------------------------------------------------------------

/// Fresh unique directory per call, cleaned up by the test harness's temp
/// sweep (and explicitly at scope end via the returned guard).
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           ("syrwatch_" + tag + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string slurp(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void flip_byte(const fs::path& path, std::size_t offset) {
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(byte);
}

workload::ScenarioConfig small_config(std::uint64_t total,
                                      std::size_t threads) {
  workload::ScenarioConfig config;
  config.total_requests = total;
  config.user_population = 4'000;
  config.catalog_tail = 3'000;
  config.torrent_contents = 500;
  config.threads = threads;
  return config;
}

std::string farm_state(const workload::SyriaScenario& scenario) {
  std::string state;
  scenario.farm().save_state(state);
  return state;
}

std::vector<std::string> run_to_csv(const workload::ScenarioConfig& config) {
  workload::SyriaScenario scenario{config};
  std::vector<std::string> lines;
  scenario.run([&](const proxy::LogRecord& record) {
    lines.push_back(proxy::to_csv(record));
  });
  return lines;
}

// --- checksums -------------------------------------------------------------

TEST(Checksum, Crc32MatchesCheckValue) {
  // The IEEE 802.3 reflected CRC-32 check value.
  EXPECT_EQ(util::crc32_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32_of(""), 0u);
}

TEST(Checksum, Crc32IncrementalMatchesOneShot) {
  util::Crc32 crc;
  crc.update("12345");
  crc.update("");
  crc.update("6789");
  EXPECT_EQ(crc.value(), util::crc32_of("123456789"));
}

TEST(Checksum, Crc32ResumeContinuesFinalizedStream) {
  // resume(value()) must behave as if the earlier bytes were update()d on
  // this instance — the contract that lets a restarted process extend the
  // spool CRC without re-reading the committed prefix.
  util::Crc32 first;
  first.update("12345");
  util::Crc32 second;
  second.resume(first.value());
  second.update("6789");
  EXPECT_EQ(second.value(), util::crc32_of("123456789"));
}

/// Bitwise CRC-32 (reflected, polynomial 0xEDB88320): the definition the
/// table-driven kernel must agree with.
std::uint32_t reference_crc32(const unsigned char* bytes, std::size_t size,
                              std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
  }
  return ~crc;
}

TEST(Checksum, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Slice-by-8 folds eight bytes per step and finishes bytewise: every
  // length 0..1024 from every start offset 0..7 crosses each split of
  // the two loops and each alignment of the 8-byte loads.
  std::vector<unsigned char> bytes(1024 + 8);
  std::uint32_t x = 0x2545F491u;
  for (unsigned char& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      util::Crc32 crc;
      crc.update(bytes.data() + offset, length);
      ASSERT_EQ(crc.value(),
                reference_crc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Checksum, Crc32IncrementalSplitsMatchReference) {
  std::vector<unsigned char> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint32_t whole = reference_crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    util::Crc32 crc;
    crc.update(bytes.data(), split);
    crc.update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(crc.value(), whole) << "split " << split;
    // The reference itself chains the same way.
    EXPECT_EQ(reference_crc32(bytes.data() + split, bytes.size() - split,
                              reference_crc32(bytes.data(), split)),
              whole);
  }
}

TEST(Checksum, HexRoundTrip) {
  EXPECT_EQ(util::to_hex32(0xCBF43926u), "cbf43926");
  std::uint32_t out32 = 0;
  ASSERT_TRUE(util::parse_hex32("cbf43926", out32));
  EXPECT_EQ(out32, 0xCBF43926u);
  EXPECT_FALSE(util::parse_hex32("cbf4392", out32));   // short
  EXPECT_FALSE(util::parse_hex32("cbf4392g", out32));  // bad digit
  const std::uint64_t fp = util::fnv1a64("syrwatch");
  std::uint64_t out64 = 0;
  ASSERT_TRUE(util::parse_hex64(util::to_hex64(fp), out64));
  EXPECT_EQ(out64, fp);
}

TEST(Checksum, FileDigestMatchesInMemory) {
  TempDir dir{"digest"};
  const std::string body = "line one\nline two\n";
  util::atomic_write_file((dir.path / "f.txt").string(), body);
  const auto digest = util::crc32_file((dir.path / "f.txt").string());
  EXPECT_EQ(digest.bytes, body.size());
  EXPECT_EQ(digest.crc32, util::crc32_of(body));
  EXPECT_THROW(util::crc32_file((dir.path / "absent").string()),
               std::runtime_error);
}

TEST(Checksum, FilePrefixDigestIgnoresTail) {
  TempDir dir{"prefix"};
  const std::string body = "committed prefix|torn tail";
  util::atomic_write_file((dir.path / "f").string(), body);
  const auto digest =
      util::crc32_file_prefix((dir.path / "f").string(), 16);
  EXPECT_EQ(digest.bytes, 16u);
  EXPECT_EQ(digest.crc32, util::crc32_of("committed prefix"));
  // A limit past EOF just digests the whole file — caller compares .bytes.
  const auto whole =
      util::crc32_file_prefix((dir.path / "f").string(), 9999);
  EXPECT_EQ(whole.bytes, body.size());
  EXPECT_EQ(whole.crc32, util::crc32_of(body));
}

// --- atomic file I/O -------------------------------------------------------

TEST(AtomicIo, WriteFileIsAtomicAndReportsDigest) {
  TempDir dir{"atomic"};
  const fs::path target = dir.path / "out.csv";
  const auto info = util::atomic_write_file(target.string(), "hello\n");
  EXPECT_EQ(info.bytes, 6u);
  EXPECT_EQ(info.crc32, util::crc32_of("hello\n"));
  EXPECT_EQ(slurp(target), "hello\n");
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  // Overwrite replaces wholesale.
  util::atomic_write_file(target.string(), "x");
  EXPECT_EQ(slurp(target), "x");
}

TEST(AtomicIo, AbandonedWriterLeavesNothingBehind) {
  TempDir dir{"abandon"};
  const fs::path target = dir.path / "out.csv";
  {
    util::AtomicFileWriter writer{target.string()};
    writer.write("partial");
    // Destructor abandons an uncommitted writer.
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
}

TEST(AtomicIo, StreamingWriterCommitMatchesWholeFileWrite) {
  TempDir dir{"stream"};
  util::AtomicFileWriter writer{(dir.path / "a").string()};
  writer.write("abc");
  writer.write("def\n");
  const auto info = writer.commit();
  EXPECT_EQ(info.bytes, 7u);
  EXPECT_EQ(info.crc32, util::crc32_of("abcdef\n"));
  EXPECT_EQ(slurp(dir.path / "a"), "abcdef\n");
}

// --- cancel token ----------------------------------------------------------

TEST(CancelToken, FlagAndDeadlineSemantics) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
  token.set_deadline_after(-1.0);  // already expired
  EXPECT_TRUE(token.cancelled());
  token.reset();
  token.set_deadline_after(3600.0);  // far future: not cancelled yet
  EXPECT_FALSE(token.cancelled());
}

// --- manifest --------------------------------------------------------------

durable::RunManifest sample_manifest() {
  durable::RunManifest manifest;
  manifest.state = "interrupted";
  manifest.command = "generate";
  manifest.seed = 2011;
  manifest.total_requests = 1'500'000;
  manifest.fault_profile = "rolling-brownout";
  manifest.apply_leak_filter = true;
  manifest.threads = 8;
  manifest.config_fingerprint = "0123456789abcdef";
  manifest.next_batch = 3;
  manifest.total_batches = 21;
  manifest.artifacts.push_back(
      {"log_spool.csv", "spool", 1234, 0xDEADBEEFu, 2});
  manifest.artifacts.push_back({"farm_state.bin", "state", 99, 0x1u, -1});
  manifest.artifacts.push_back({"leak.csv", "output", 5678, 0x2u, -1});
  return manifest;
}

TEST(Manifest, JsonRoundTrip) {
  const auto manifest = sample_manifest();
  const auto parsed = durable::RunManifest::parse(manifest.to_json());
  EXPECT_EQ(parsed.state, manifest.state);
  EXPECT_EQ(parsed.command, manifest.command);
  EXPECT_EQ(parsed.seed, manifest.seed);
  EXPECT_EQ(parsed.total_requests, manifest.total_requests);
  EXPECT_EQ(parsed.fault_profile, manifest.fault_profile);
  EXPECT_EQ(parsed.apply_leak_filter, manifest.apply_leak_filter);
  EXPECT_EQ(parsed.threads, manifest.threads);
  EXPECT_EQ(parsed.config_fingerprint, manifest.config_fingerprint);
  EXPECT_EQ(parsed.next_batch, manifest.next_batch);
  EXPECT_EQ(parsed.total_batches, manifest.total_batches);
  ASSERT_EQ(parsed.artifacts.size(), manifest.artifacts.size());
  for (std::size_t i = 0; i < parsed.artifacts.size(); ++i) {
    EXPECT_EQ(parsed.artifacts[i].path, manifest.artifacts[i].path);
    EXPECT_EQ(parsed.artifacts[i].role, manifest.artifacts[i].role);
    EXPECT_EQ(parsed.artifacts[i].bytes, manifest.artifacts[i].bytes);
    EXPECT_EQ(parsed.artifacts[i].crc32, manifest.artifacts[i].crc32);
    EXPECT_EQ(parsed.artifacts[i].batch, manifest.artifacts[i].batch);
  }
}

TEST(Manifest, ParseRejectsDamage) {
  const auto manifest = sample_manifest();
  EXPECT_THROW(durable::RunManifest::parse("not json"), std::runtime_error);
  EXPECT_THROW(durable::RunManifest::parse("{}"), std::runtime_error);
  std::string wrong_schema = manifest.to_json();
  const auto at = wrong_schema.find("manifest.v1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 11, "manifest.v9");
  EXPECT_THROW(durable::RunManifest::parse(wrong_schema),
               std::runtime_error);
  std::string bad_state = manifest.to_json();
  const auto state_at = bad_state.find("interrupted");
  ASSERT_NE(state_at, std::string::npos);
  bad_state.replace(state_at, 11, "exploded!!!");
  EXPECT_THROW(durable::RunManifest::parse(bad_state), std::runtime_error);
}

/// `manifest` with the first `"field": <value>` replaced by `text`.
std::string with_number(std::string json, const std::string& field,
                        const std::string& text) {
  const auto at = json.find("\"" + field + "\": ");
  EXPECT_NE(at, std::string::npos) << field;
  const auto begin = at + field.size() + 4;
  const auto end = json.find_first_of(",\n}", begin);
  return json.replace(begin, end - begin, text);
}

std::string parse_error(const std::string& json) {
  try {
    durable::RunManifest::parse(json);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Manifest, NumbersCoverTheFullUnsignedRange) {
  auto manifest = sample_manifest();
  for (const std::uint64_t seed :
       {(std::uint64_t{1} << 63) + 5, ~std::uint64_t{0}}) {
    manifest.seed = seed;
    EXPECT_EQ(durable::RunManifest::parse(manifest.to_json()).seed, seed);
  }
  const std::string json = sample_manifest().to_json();
  EXPECT_NE(parse_error(with_number(json, "seed", "-1"))
                .find("is not a non-negative integer"),
            std::string::npos);
  EXPECT_NE(parse_error(with_number(json, "seed", "1.5"))
                .find("non-integer number 1.5"),
            std::string::npos);
  EXPECT_NE(parse_error(with_number(json, "seed", "1e3"))
                .find("non-integer number 1e3"),
            std::string::npos);
  EXPECT_NE(parse_error(with_number(json, "seed", "18446744073709551616"))
                .find("number out of range"),
            std::string::npos);
  EXPECT_NE(parse_error(with_number(json, "seed", "-"))
                .find("bad number"),
            std::string::npos);
  // Signed fields keep their own range: batch is an int64_t.
  EXPECT_NE(parse_error(with_number(json, "batch", "9223372036854775808"))
                .find("out of range"),
            std::string::npos);
  EXPECT_EQ(durable::RunManifest::parse(
                with_number(json, "batch", "-9223372036854775808"))
                .artifacts.front()
                .batch,
            std::numeric_limits<std::int64_t>::min());
}

TEST(Manifest, UpsertReplacesByPath) {
  durable::RunManifest manifest;
  manifest.upsert_artifact({"a", "segment", 1, 2, 0});
  manifest.upsert_artifact({"b", "state", 3, 4, -1});
  manifest.upsert_artifact({"a", "segment", 9, 8, 0});
  ASSERT_EQ(manifest.artifacts.size(), 2u);
  EXPECT_EQ(manifest.find_artifact("a")->bytes, 9u);
  EXPECT_EQ(manifest.find_artifact("a")->crc32, 8u);
  EXPECT_EQ(manifest.find_artifact("missing"), nullptr);
}

TEST(Manifest, VerifyDetectsSingleFlippedByte) {
  TempDir dir{"verify"};
  const std::string body(4096, 'A');
  const auto info =
      util::atomic_write_file((dir.path / "blob.bin").string(), body);

  durable::RunManifest manifest;
  manifest.config_fingerprint = "0000000000000000";
  manifest.upsert_artifact({"blob.bin", "segment", info.bytes, info.crc32, 0});
  auto report = durable::verify_artifacts(manifest, dir.str());
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.checks[0].status(), "ok");

  flip_byte(dir.path / "blob.bin", 2048);
  report = durable::verify_artifacts(manifest, dir.str());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checks[0].status(), "CRC MISMATCH");

  fs::remove(dir.path / "blob.bin");
  report = durable::verify_artifacts(manifest, dir.str());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checks[0].status(), "MISSING");
}

TEST(Manifest, VerifyReportsSizeMismatch) {
  TempDir dir{"size"};
  const auto info =
      util::atomic_write_file((dir.path / "f").string(), "12345");
  durable::RunManifest manifest;
  manifest.upsert_artifact({"f", "output", info.bytes, info.crc32, -1});
  util::atomic_write_file((dir.path / "f").string(), "123456");
  const auto report = durable::verify_artifacts(manifest, dir.str());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checks[0].status(), "SIZE MISMATCH");
}

TEST(Manifest, SpoolRoleVerifiesCommittedPrefixOnly) {
  TempDir dir{"spool_prefix"};
  const std::string committed = "header\nrecord one\nrecord two\n";
  durable::RunManifest manifest;
  manifest.upsert_artifact({"log_spool.csv", "spool", committed.size(),
                            util::crc32_of(committed), 1});

  // A torn tail beyond the committed prefix (a crashed append) is legal.
  util::atomic_write_file((dir.path / "log_spool.csv").string(),
                          committed + "torn half-rec");
  auto report = durable::verify_artifacts(manifest, dir.str());
  EXPECT_TRUE(report.ok()) << "torn tail must not fail verification";

  // Damage *inside* the prefix is not.
  flip_byte(dir.path / "log_spool.csv", 10);
  report = durable::verify_artifacts(manifest, dir.str());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checks[0].status(), "CRC MISMATCH");

  // Neither is a spool shorter than its committed prefix.
  util::atomic_write_file((dir.path / "log_spool.csv").string(), "header\n");
  report = durable::verify_artifacts(manifest, dir.str());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checks[0].status(), "SIZE MISMATCH");
}

// --- config fingerprint ----------------------------------------------------

TEST(ConfigFingerprint, SensitiveToSemanticsBlindToThreads) {
  const auto base = small_config(10'000, 1);
  const auto fp = durable::config_fingerprint(base);
  EXPECT_EQ(fp.size(), 16u);

  auto threaded = base;
  threaded.threads = 8;
  EXPECT_EQ(durable::config_fingerprint(threaded), fp);

  auto reseeded = base;
  reseeded.seed = 4077;
  EXPECT_NE(durable::config_fingerprint(reseeded), fp);

  auto faulted = base;
  faulted.fault_profile = "rolling-brownout";
  EXPECT_NE(durable::config_fingerprint(faulted), fp);

  auto boosted = base;
  boosted.share_boosts = {{"im", 2.0}};
  EXPECT_NE(durable::config_fingerprint(boosted), fp);
}

// --- crash-injection checkpoint/resume -------------------------------------

struct SimulatedCrash {};

/// Runs under checkpointing, crashing (via a thrown SimulatedCrash from the
/// after_commit hook) once `crash_after` batches are durable; then resumes
/// in a brand-new scenario and returns the full replayed+regenerated log.
std::vector<std::string> crash_then_resume(
    const workload::ScenarioConfig& crash_cfg,
    const workload::ScenarioConfig& resume_cfg, const std::string& dir,
    std::size_t crash_after) {
  {
    workload::SyriaScenario scenario{crash_cfg};
    durable::CheckpointOptions options;
    options.directory = dir;
    options.after_commit = [crash_after](std::size_t batch) {
      if (batch + 1 >= crash_after) throw SimulatedCrash{};
    };
    EXPECT_THROW(durable::run_checkpointed(
                     scenario, options,
                     [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
  }
  // The crash left state "in_progress" with crash_after committed batches.
  const auto crashed = durable::RunManifest::load(
      (fs::path(dir) / durable::RunManifest::kFileName).string());
  EXPECT_EQ(crashed.state, "in_progress");
  EXPECT_EQ(crashed.next_batch, crash_after);

  workload::SyriaScenario scenario{resume_cfg};
  durable::CheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.batches_replayed, crash_after);
  EXPECT_GT(run.records_replayed, 0u);
  EXPECT_EQ(run.manifest.state, "complete");
  return lines;
}

TEST(CheckpointResume, CrashedRunResumesBitIdentical) {
  // The acceptance matrix: fault profiles {none, rolling-brownout} ×
  // resume thread counts {1, 8}, each crashed mid-run and resumed.
  for (const char* profile : {"none", "rolling-brownout"}) {
    auto reference_cfg = small_config(30'000, 1);
    reference_cfg.fault_profile = profile;
    const auto reference = run_to_csv(reference_cfg);
    ASSERT_GT(reference.size(), 10'000u) << profile;

    for (const std::size_t resume_threads :
         {std::size_t{1}, std::size_t{8}}) {
      TempDir dir{std::string("crash_") + profile + "_" +
                  std::to_string(resume_threads)};
      auto crash_cfg = reference_cfg;
      crash_cfg.threads = 4;
      auto resume_cfg = reference_cfg;
      resume_cfg.threads = resume_threads;
      const auto lines =
          crash_then_resume(crash_cfg, resume_cfg, dir.str(), 2);
      EXPECT_EQ(lines, reference)
          << profile << " resumed @ " << resume_threads << " threads";
    }
  }
}

TEST(CheckpointResume, SeedAbove2To63VerifiesAndResumesBitIdentical) {
  auto config = small_config(20'000, 2);
  config.seed = (std::uint64_t{1} << 63) + 5;
  const auto reference = run_to_csv(config);

  TempDir dir{"big_seed"};
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.after_commit = [](std::size_t) { throw SimulatedCrash{}; };
    EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                           [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
  }
  const auto interrupted = durable::RunManifest::load(
      (dir.path / durable::RunManifest::kFileName).string());
  EXPECT_EQ(interrupted.seed, config.seed);
  EXPECT_TRUE(durable::verify_artifacts(interrupted, dir.str()).ok());

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_GT(run.batches_replayed, 0u);
  EXPECT_EQ(lines, reference);
}

TEST(CheckpointResume, FreshRunRefusesOccupiedDirectory) {
  TempDir dir{"occupied"};
  const auto config = small_config(20'000, 2);
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    durable::run_checkpointed(scenario, options,
                              [](const proxy::LogRecord&) {});
  }
  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                         [](const proxy::LogRecord&) {}),
               std::runtime_error);
}

TEST(CheckpointResume, ResumeRefusesDifferentConfig) {
  TempDir dir{"fingerprint"};
  {
    workload::SyriaScenario scenario{small_config(20'000, 2)};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.after_commit = [](std::size_t) { throw SimulatedCrash{}; };
    EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                           [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
  }
  auto other = small_config(20'000, 2);
  other.seed = 999;  // semantic change → fingerprint mismatch
  workload::SyriaScenario scenario{other};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                         [](const proxy::LogRecord&) {}),
               std::runtime_error);
}

TEST(CheckpointResume, ResumeRefusesTamperedSpool) {
  TempDir dir{"tamper"};
  const auto config = small_config(20'000, 2);
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.after_commit = [](std::size_t batch) {
      if (batch >= 1) throw SimulatedCrash{};
    };
    EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                           [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
  }
  flip_byte(dir.path / "log_spool.csv", 10);
  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                         [](const proxy::LogRecord&) {}),
               std::runtime_error);
}

TEST(CheckpointResume, CancellationLeavesResumableCheckpoint) {
  const auto config = small_config(30'000, 2);
  const auto reference = run_to_csv(config);

  TempDir dir{"cancel"};
  util::CancelToken token;
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.cancel = &token;
    // Graceful stop after the first durable batch — mid-run, not mid-batch.
    options.after_commit = [&token](std::size_t) { token.request_cancel(); };
    std::vector<std::string> partial;
    const auto run = durable::run_checkpointed(
        scenario, options, [&](const proxy::LogRecord& record) {
          partial.push_back(proxy::to_csv(record));
        });
    EXPECT_FALSE(run.completed);
    EXPECT_EQ(run.manifest.state, "interrupted");
    EXPECT_GT(run.manifest.next_batch, 0u);
    EXPECT_LT(run.manifest.next_batch, run.manifest.total_batches);
    // The partial stream is an exact prefix of the reference log.
    ASSERT_LT(partial.size(), reference.size());
    for (std::size_t i = 0; i < partial.size(); ++i)
      ASSERT_EQ(partial[i], reference[i]) << "prefix diverged at " << i;
  }

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(lines, reference);
}

TEST(CheckpointResume, CompletedCheckpointReplaysIdempotently) {
  TempDir dir{"idempotent"};
  const auto config = small_config(20'000, 2);
  std::vector<std::string> first;
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    durable::run_checkpointed(scenario, options,
                              [&](const proxy::LogRecord& record) {
                                first.push_back(proxy::to_csv(record));
                              });
  }
  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> replayed;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        replayed.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.batches_executed, 0u);  // nothing regenerated
  EXPECT_EQ(replayed, first);
}

TEST(CheckpointResume, CompletedCheckpointRestoresFarmState) {
  // Re-running a finished checkpoint replays its log and must also leave
  // the farm as the run left it: the failover tallies the report prints,
  // and every cache and RNG word.
  TempDir dir{"completed_state"};
  auto config = small_config(20'000, 2);
  config.fault_profile = "sg47-outage";
  std::uint64_t failovers = 0;
  std::string state;
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    ASSERT_TRUE(durable::run_checkpointed(scenario, options,
                                          [](const proxy::LogRecord&) {})
                    .completed);
    failovers = scenario.farm().failover_total();
    state = farm_state(scenario);
  }
  ASSERT_GT(failovers, 0u);
  const auto rerun = [&] {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.resume = true;
    const auto run = durable::run_checkpointed(
        scenario, options, [](const proxy::LogRecord&) {});
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.batches_executed, 0u);
    EXPECT_EQ(scenario.farm().failover_total(), failovers);
    EXPECT_EQ(farm_state(scenario), state);
  };
  rerun();

  // A damaged state is refused as on the in-progress path.
  const auto manifest = durable::RunManifest::load(
      (dir.path / durable::RunManifest::kFileName).string());
  const durable::ManifestArtifact* artifact = nullptr;
  for (const auto& entry : manifest.artifacts)
    if (entry.role == "state") artifact = &entry;
  ASSERT_NE(artifact, nullptr);
  flip_byte(dir.path / artifact->path, 9);
  try {
    rerun();
    FAIL() << "a damaged state must be refused";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("CRC MISMATCH"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointResume, CancelAfterRoutingDoesNotRecountFailovers) {
  // sg47-outage diverts traffic in batches 10-13. A cancel that lands
  // after batch 12 was routed discards the batch before any proxy sees
  // it; its diversions must not reach the committed farm state, or the
  // resume (which routes batch 12 again) counts them twice.
  auto config = small_config(30'000, 4);
  config.fault_profile = "sg47-outage";
  std::uint64_t failovers = 0;
  std::string state;
  {
    workload::SyriaScenario scenario{config};
    scenario.run([](const proxy::LogRecord&) {});
    failovers = scenario.farm().failover_total();
    state = farm_state(scenario);
  }
  ASSERT_GT(failovers, 0u);

  TempDir dir{"failover_cancel"};
  util::CancelToken token;
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.cancel = &token;
    options.commit_interval = 8;
    options.batch_source = [&](std::size_t b, workload::RoutedBatch& batch) {
      const bool routed = scenario.generate_batch(b, batch);
      if (b == 12) token.request_cancel();
      return routed;
    };
    const auto run = durable::run_checkpointed(
        scenario, options, [](const proxy::LogRecord&) {});
    ASSERT_FALSE(run.completed);
    ASSERT_EQ(run.manifest.next_batch, 12u);
  }

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  const auto run = durable::run_checkpointed(scenario, options,
                                             [](const proxy::LogRecord&) {});
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(scenario.farm().failover_total(), failovers);
  EXPECT_EQ(farm_state(scenario), state);
}

TEST(CheckpointResume, CommitThrowingWhileNextBatchIsProducedResumes) {
  // At threads 4 batch k+1 is produced while batch k is sunk and
  // committed. A commit hook that throws at batch 3 must wait for batch
  // 4's producer, then propagate, and leave a checkpoint the resume
  // completes byte-identically.
  const auto config = small_config(30'000, 4);
  const auto reference = run_to_csv(config);
  TempDir dir{"throw_overlap"};
  {
    workload::SyriaScenario scenario{config};
    std::atomic<bool> committing{false};
    std::atomic<bool> produced_4{false};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.batch_source = [&](std::size_t b, workload::RoutedBatch& batch) {
      if (b == 4) {
        // Hold batch 4 until batch 3's commit is under way, so the throw
        // surely lands while batch 4 is being produced.
        while (!committing.load()) std::this_thread::yield();
        produced_4.store(true);
      }
      return scenario.generate_batch(b, batch);
    };
    options.after_commit = [&](std::size_t batch) {
      if (batch != 3) return;
      committing.store(true);
      throw SimulatedCrash{};
    };
    EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                           [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
    EXPECT_TRUE(produced_4.load());
  }
  const auto crashed = durable::RunManifest::load(
      (dir.path / durable::RunManifest::kFileName).string());
  EXPECT_EQ(crashed.state, "in_progress");
  EXPECT_EQ(crashed.next_batch, 4u);

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(lines, reference);
}

TEST(CheckpointResume, CancelFromProgressHookStopsAfterThatBatch) {
  // The cancel fires in on_progress(k) while batch k+1 is being produced:
  // the sink must have seen exactly batches 0..k, and the resume picks up
  // at k+1.
  const auto config = small_config(30'000, 4);
  std::vector<std::string> reference;
  std::vector<std::size_t> batch_end;  // records emitted through batch b
  {
    workload::SyriaScenario scenario{config};
    workload::RunControl control;
    control.on_batch = [&](std::size_t) {
      batch_end.push_back(reference.size());
    };
    ASSERT_TRUE(scenario.run(
        [&](const proxy::LogRecord& record) {
          reference.push_back(proxy::to_csv(record));
        },
        control));
  }
  constexpr std::size_t k = 5;
  ASSERT_GT(batch_end.size(), k + 1);

  TempDir dir{"progress_cancel"};
  util::CancelToken token;
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.cancel = &token;
    options.commit_interval = 4;  // batches 4 and 5 commit on the way out
    options.on_progress = [&](std::size_t batch) {
      if (batch == k) token.request_cancel();
    };
    std::vector<std::string> partial;
    const auto run = durable::run_checkpointed(
        scenario, options, [&](const proxy::LogRecord& record) {
          partial.push_back(proxy::to_csv(record));
        });
    EXPECT_FALSE(run.completed);
    EXPECT_EQ(run.manifest.next_batch, k + 1);
    ASSERT_EQ(partial.size(), batch_end[k]);
    EXPECT_TRUE(std::equal(partial.begin(), partial.end(), reference.begin()));
  }

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.batches_replayed, k + 1);
  EXPECT_EQ(lines, reference);
}

TEST(CheckpointResume, TornSpoolTailIsTruncatedOnResume) {
  // A crash mid-append leaves bytes past the committed prefix; resume must
  // discard them and still converge on the reference log.
  const auto config = small_config(30'000, 2);
  const auto reference = run_to_csv(config);

  TempDir dir{"torn"};
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.after_commit = [](std::size_t batch) {
      if (batch >= 1) throw SimulatedCrash{};
    };
    EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                           [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
  }
  const fs::path spool = dir.path / "log_spool.csv";
  const auto committed = fs::file_size(spool);
  {
    std::ofstream torn{spool, std::ios::binary | std::ios::app};
    torn << "2011-07-2";  // half a record, no newline
  }
  ASSERT_GT(fs::file_size(spool), committed);

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(lines, reference);
}

TEST(CheckpointResume, FinalizeOutputPromotesSpoolAndIsIdempotent) {
  TempDir dir{"finalize"};
  const auto config = small_config(20'000, 2);
  std::vector<std::string> first;
  durable::RunManifest manifest;
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    auto run = durable::run_checkpointed(scenario, options,
                                         [&](const proxy::LogRecord& record) {
                                           first.push_back(proxy::to_csv(record));
                                         });
    manifest = std::move(run.manifest);
  }
  const fs::path out = dir.path / "leak.csv";
  const auto info =
      durable::finalize_output(dir.str(), manifest, out.string());
  // The spool became the output file; its digest covers the whole log.
  EXPECT_FALSE(fs::exists(dir.path / "log_spool.csv"));
  const auto on_disk = util::crc32_file(out.string());
  EXPECT_EQ(on_disk.bytes, info.bytes);
  EXPECT_EQ(on_disk.crc32, info.crc32);
  EXPECT_EQ(manifest.find_artifact("log_spool.csv"), nullptr);
  ASSERT_NE(manifest.find_artifact(out.string()), nullptr);
  EXPECT_TRUE(durable::verify_artifacts(manifest, dir.str()).ok());

  // Idempotent: a second finalize re-verifies the recorded output.
  const auto again =
      durable::finalize_output(dir.str(), manifest, out.string());
  EXPECT_EQ(again.bytes, info.bytes);
  EXPECT_EQ(again.crc32, info.crc32);

  // A resume after promotion replays from the output file instead.
  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  std::vector<std::string> replayed;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        replayed.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(replayed, first);
}

TEST(CheckpointResume, CommitIntervalAmortizesAndStaysResumable) {
  const auto config = small_config(30'000, 2);
  const auto reference = run_to_csv(config);

  TempDir dir{"interval"};
  {
    workload::SyriaScenario scenario{config};
    durable::CheckpointOptions options;
    options.directory = dir.str();
    options.commit_interval = 4;
    // after_commit fires only at durable commits — the first is batch 3.
    options.after_commit = [](std::size_t batch) {
      EXPECT_GE(batch, 3u);
      throw SimulatedCrash{};
    };
    EXPECT_THROW(durable::run_checkpointed(scenario, options,
                                           [](const proxy::LogRecord&) {}),
                 SimulatedCrash);
  }
  const auto crashed = durable::RunManifest::load(
      (fs::path(dir.str()) / durable::RunManifest::kFileName).string());
  EXPECT_EQ(crashed.next_batch, 4u);

  workload::SyriaScenario scenario{config};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.resume = true;
  options.commit_interval = 4;
  std::vector<std::string> lines;
  const auto run = durable::run_checkpointed(
      scenario, options, [&](const proxy::LogRecord& record) {
        lines.push_back(proxy::to_csv(record));
      });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.batches_replayed, 4u);
  EXPECT_EQ(lines, reference);
}

TEST(CheckpointResume, MergeKeysMatchTheCommittedSpoolAtEveryCommit) {
  // The writer appends batch b's keys, then commits them while phase 2
  // of batch b+1 runs and its sink refills the key buffer. At every
  // commit the manifest's key sidecar must hold one 8-byte key per record
  // of its committed spool prefix, and those bytes must be on disk, in
  // merge order. Writes of at most 64 bytes make every append outlast
  // phase 2, so a sink that did not wait for it would write into the
  // buffer the writer is draining.
  TempDir dir{"keys_in_step"};
  workload::SyriaScenario scenario{small_config(30'000, 4)};
  util::FaultyVfs vfs{util::system_vfs(),
                      util::StorageFaultSchedule::parse("short-writes:64")};
  durable::CheckpointOptions options;
  options.directory = dir.str();
  options.record_keys = true;
  options.commit_interval = 1;
  options.vfs = &vfs;
  std::size_t commits = 0;
  options.after_commit = [&](std::size_t batch) {
    ++commits;
    const auto manifest = durable::RunManifest::load(
        (dir.path / durable::RunManifest::kFileName).string());
    EXPECT_EQ(manifest.next_batch, batch + 1);
    const durable::ManifestArtifact* spool =
        manifest.find_artifact("log_spool.csv");
    const durable::ManifestArtifact* keys =
        manifest.find_artifact("merge_keys.bin");
    ASSERT_NE(spool, nullptr);
    ASSERT_NE(keys, nullptr);
    const std::string lines =
        slurp(dir.path / "log_spool.csv").substr(0, spool->bytes);
    ASSERT_EQ(lines.size(), spool->bytes) << "batch " << batch;
    const auto records = static_cast<std::uint64_t>(
        std::count(lines.begin(), lines.end(), '\n') - 1);  // less header
    ASSERT_EQ(keys->bytes, 8 * records) << "batch " << batch;
    const std::string on_disk =
        slurp(dir.path / "merge_keys.bin").substr(0, keys->bytes);
    ASSERT_EQ(on_disk.size(), keys->bytes) << "batch " << batch;
    EXPECT_EQ(util::crc32_of(on_disk), keys->crc32) << "batch " << batch;
    std::uint64_t previous = 0;
    for (std::size_t at = 0; at < on_disk.size(); at += 8) {
      std::uint64_t key = 0;
      for (int i = 7; i >= 0; --i)
        key = (key << 8) | static_cast<unsigned char>(on_disk[at + i]);
      ASSERT_TRUE(at == 0 || key > previous)
          << "batch " << batch << ": key " << at / 8 << " out of order";
      previous = key;
    }
  };
  const auto run = durable::run_checkpointed(scenario, options,
                                             [](const proxy::LogRecord&) {});
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(commits, scenario.batch_count());
}

// --- Study-level integration -----------------------------------------------

TEST(StudyCheckpoint, InterruptedSimulateResumesToIdenticalDatasets) {
  const auto config = small_config(30'000, 2);

  core::Study clean{config};
  clean.run();
  const auto& clean_datasets = clean.datasets();

  TempDir dir{"study"};
  core::Study study{config};
  core::SimulateOptions options;
  options.checkpoint_dir = dir.str();
  options.after_commit = [](std::size_t batch) {
    if (batch >= 1) throw SimulatedCrash{};
  };
  EXPECT_THROW(study.simulate(options), SimulatedCrash);
  EXPECT_THROW(study.build_datasets(), std::logic_error);  // not armed

  core::SimulateOptions resume;
  resume.checkpoint_dir = dir.str();
  resume.resume = true;
  ASSERT_EQ(study.simulate(resume), core::SimulateStatus::kComplete);
  const auto result = study.build_datasets();
  EXPECT_EQ(result.datasets.full.rows(), clean_datasets.full.rows());
  EXPECT_EQ(result.datasets.sample.rows(), clean_datasets.sample.rows());
  EXPECT_EQ(result.datasets.user.rows(), clean_datasets.user.rows());
  EXPECT_EQ(result.datasets.denied.rows(), clean_datasets.denied.rows());
}

TEST(StudyCheckpoint, CancelledSimulateReportsInterrupted) {
  core::Study study{small_config(20'000, 2)};
  util::CancelToken token;
  token.request_cancel();  // cancelled before the first batch
  core::SimulateOptions options;
  options.cancel = &token;
  EXPECT_EQ(study.simulate(options), core::SimulateStatus::kInterrupted);
  EXPECT_THROW(study.build_datasets(), std::logic_error);
}

}  // namespace
