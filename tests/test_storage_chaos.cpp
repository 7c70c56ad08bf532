// Storage-fault chaos (DESIGN.md §4.13): the FaultyVfs fault model, the
// hardened atomic writers, checkpoint commit under ENOSPC / short-write /
// fsync-failure / power-cut schedules — asserting the §4.8 headline
// contract survives every one of them: a faulted run either completes or
// stops on a consistent manifest from which resume reproduces the spool
// byte-identically, and a simulated power cut never promotes an empty or
// torn artifact.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stream.h"
#include "colfmt/container.h"
#include "durable/checkpoint.h"
#include "durable/manifest.h"
#include "proxy/log_io.h"
#include "util/atomic_io.h"
#include "util/simtime.h"
#include "util/vfs.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           ("syrwatch_chaos_" + tag + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string file(const char* name) const { return (path / name).string(); }
};

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

util::FaultyVfs make_faulty(const std::string& spec) {
  return util::FaultyVfs{util::system_vfs(),
                         util::StorageFaultSchedule::parse(spec)};
}

proxy::LogRecord make_record(int i) {
  proxy::LogRecord record;
  record.time = util::to_unix_seconds({2011, 8, 3, 8, 0, 0}) + i;
  record.proxy_index = static_cast<std::uint8_t>(i % 7);
  record.user_hash = 0x1234'5678'0000ULL + static_cast<std::uint64_t>(i);
  record.user_agent = "Mozilla/4.0 (compatible; MSIE 8.0)";
  record.method = "GET";
  record.url =
      *net::Url::parse("http://example" + std::to_string(i % 13) +
                       ".sy/page/" + std::to_string(i));
  record.categories = "News";
  record.filter_result = proxy::FilterResult::kObserved;
  record.status = 200;
  return record;
}

// --- schedule parsing -------------------------------------------------------

TEST(StorageFaultSchedule, ParsesCanonicalNames) {
  for (const std::string& name : util::StorageFaultSchedule::names())
    EXPECT_NO_THROW(util::StorageFaultSchedule::parse(name)) << name;

  const auto enospc = util::StorageFaultSchedule::parse("enospc:4096");
  EXPECT_EQ(enospc.capacity_bytes, 4096u);
  const auto shorts = util::StorageFaultSchedule::parse("short-writes");
  EXPECT_EQ(shorts.short_write_cap, 4096u);
  const auto eintr = util::StorageFaultSchedule::parse("eintr-storm:5");
  EXPECT_EQ(eintr.eintr_every, 5u);
  const auto fsync = util::StorageFaultSchedule::parse("fsync-fail:3");
  EXPECT_EQ(fsync.fail_fsync_number, 3u);
  const auto cut = util::StorageFaultSchedule::parse("power-cut:2");
  EXPECT_EQ(cut.power_cut_at_rename, 2u);
  EXPECT_FALSE(cut.torn_tail);
  const auto torn = util::StorageFaultSchedule::parse("torn-tail");
  EXPECT_EQ(torn.power_cut_at_rename, 1u);
  EXPECT_TRUE(torn.torn_tail);
}

TEST(StorageFaultSchedule, RejectsUnknownAndMalformed) {
  EXPECT_THROW(util::StorageFaultSchedule::parse("raid-failure"),
               std::invalid_argument);
  EXPECT_THROW(util::StorageFaultSchedule::parse("enospc:banana"),
               std::invalid_argument);
  EXPECT_THROW(util::StorageFaultSchedule::parse("enospc:0"),
               std::invalid_argument);
  EXPECT_THROW(util::StorageFaultSchedule::parse("none:3"),
               std::invalid_argument);
}

// --- write_fully under injected faults --------------------------------------

TEST(FaultyVfs, WriteFullyAdvancesShortWritesAndRetriesEintr) {
  TempDir dir{"write_fully"};
  std::string blob;
  for (int i = 0; i < 40'000; ++i)
    blob += static_cast<char>('a' + (i % 23));

  for (const char* spec : {"short-writes:97", "eintr-storm:3"}) {
    util::FaultyVfs vfs = make_faulty(spec);
    const std::string path = dir.file(spec);
    const int fd = vfs.open(path, util::OpenMode::kTruncate);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(util::write_fully(vfs, fd, blob));
    EXPECT_TRUE(util::fsync_fully(vfs, fd));
    EXPECT_EQ(vfs.close(fd), 0);
    EXPECT_EQ(slurp(path), blob) << spec;
  }

  util::FaultyVfs shorts = make_faulty("short-writes:97");
  const int fd = shorts.open(dir.file("stats"), util::OpenMode::kTruncate);
  ASSERT_TRUE(util::write_fully(shorts, fd, blob));
  shorts.close(fd);
  EXPECT_GT(shorts.stats().short_writes, 0u);
}

TEST(FaultyVfs, DeterministicAcrossRunsWithSameSeed) {
  TempDir dir{"determinism"};
  const std::string chunk(1000, 'x');
  auto run = [&](const char* name) {
    util::FaultyVfs vfs = make_faulty("short-writes:64");
    const int fd = vfs.open(dir.file(name), util::OpenMode::kTruncate);
    std::vector<long> returns;
    for (int i = 0; i < 50; ++i)
      returns.push_back(vfs.write(fd, chunk.data(), chunk.size()));
    vfs.close(fd);
    return returns;
  };
  EXPECT_EQ(run("a"), run("b"));
}

// --- atomic writers ---------------------------------------------------------

TEST(AtomicWriteChaos, EnospcFailsLoudAndLeavesNoArtifact) {
  TempDir dir{"enospc"};
  util::FaultyVfs vfs = make_faulty("enospc:1024");
  const std::string path = dir.file("artifact.bin");
  bool threw = false;
  try {
    util::atomic_write_file(path, std::string(8192, 'z'), &vfs);
  } catch (const util::VfsError& error) {
    threw = true;
    EXPECT_TRUE(error.out_of_space());
  }
  EXPECT_TRUE(threw);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWriteChaos, FsyncFailureAbortsBeforeRename) {
  TempDir dir{"fsyncfail"};
  util::FaultyVfs vfs = make_faulty("fsync-fail:1");
  const std::string path = dir.file("artifact.bin");
  EXPECT_THROW(util::atomic_write_file(path, "payload", &vfs),
               util::VfsError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWriteChaos, PowerCutAtCommitRenameNeverYieldsTornArtifact) {
  // The commit fsyncs before renaming, so the artifact the rename
  // publishes must survive the cut complete — never empty, never torn.
  TempDir dir{"powercut"};
  util::FaultyVfs vfs = make_faulty("power-cut:1");
  const std::string path = dir.file("artifact.bin");
  const std::string payload(100'000, 'q');
  EXPECT_THROW(util::atomic_write_file(path, payload, &vfs),
               util::SimulatedPowerLoss);
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(slurp(path), payload);
  EXPECT_TRUE(vfs.poisoned());
  EXPECT_EQ(vfs.stats().bytes_dropped, 0u);
}

TEST(AtomicWriteChaos, ExdevRenameFallsBackToVerifiedCopy) {
  // Wrapper that refuses the first rename with EXDEV, as if `to` lived on
  // another filesystem — the fallback must deliver identical bytes.
  class ExdevOnce : public util::Vfs {
   public:
    explicit ExdevOnce(util::Vfs& inner) : inner_(inner) {}
    int open(const std::string& p, util::OpenMode m) override {
      return inner_.open(p, m);
    }
    long write(int fd, const void* d, std::size_t n) override {
      return inner_.write(fd, d, n);
    }
    long read(int fd, void* d, std::size_t n, std::uint64_t off) override {
      return inner_.read(fd, d, n, off);
    }
    int fsync(int fd) override { return inner_.fsync(fd); }
    int fsync_parent(const std::string& p) override {
      return inner_.fsync_parent(p);
    }
    int close(int fd) override { return inner_.close(fd); }
    int rename(const std::string& from, const std::string& to) override {
      if (!refused_) {
        refused_ = true;
        errno = EXDEV;
        return -1;
      }
      return inner_.rename(from, to);
    }
    int truncate(const std::string& p, std::uint64_t s) override {
      return inner_.truncate(p, s);
    }
    int unlink(const std::string& p) override { return inner_.unlink(p); }
    bool stat(const std::string& p, util::VfsStat& out) override {
      return inner_.stat(p, out);
    }
    bool refused() const { return refused_; }

   private:
    util::Vfs& inner_;
    bool refused_ = false;
  };

  TempDir dir{"exdev"};
  ExdevOnce vfs{util::system_vfs()};
  const std::string path = dir.file("artifact.bin");
  std::string payload;
  for (int i = 0; i < 150'000; ++i)
    payload += static_cast<char>(i * 37);
  const util::ArtifactInfo info =
      util::atomic_write_file(path, payload, &vfs);
  EXPECT_TRUE(vfs.refused());
  EXPECT_EQ(info.bytes, payload.size());
  EXPECT_EQ(slurp(path), payload);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(path + ".xdev"));
}

// --- checkpoint under chaos -------------------------------------------------

// Every case runs at one thread and at four. The checkpoint's writer
// thread makes the same Vfs calls in the same order at either count; at
// four it does so beside the next batch's producer and phase-2 workers.
constexpr std::size_t kChaosThreads[] = {1, 4};

workload::ScenarioConfig chaos_config(std::size_t threads) {
  workload::ScenarioConfig config;
  config.total_requests = 20'000;
  config.user_population = 4'000;
  config.catalog_tail = 3'000;
  config.torrent_contents = 500;
  config.threads = threads;
  return config;
}

durable::CheckpointOptions chaos_options(const std::string& dir, bool resume,
                                         util::Vfs* vfs) {
  durable::CheckpointOptions options;
  options.directory = dir;
  options.resume = resume;
  options.commit_interval = 2;
  options.vfs = vfs;
  return options;
}

durable::CheckpointedRun run_gen(const std::string& dir, bool resume,
                                 util::Vfs* vfs, std::size_t threads) {
  workload::SyriaScenario scenario{chaos_config(threads)};
  return durable::run_checkpointed(scenario,
                                   chaos_options(dir, resume, vfs),
                                   [](const proxy::LogRecord&) {});
}

/// Clean whole-run spool bytes — the byte-identity reference.
std::string reference_spool(TempDir& dir) {
  const durable::CheckpointedRun run =
      run_gen(dir.str(), false, nullptr, 1);
  EXPECT_TRUE(run.completed);
  return slurp(dir.file("log_spool.csv"));
}

TEST(CheckpointChaos, ShortWritesAndEintrStormCompleteIdentically) {
  TempDir clean{"ref1"};
  const std::string expected = reference_spool(clean);
  for (const std::size_t threads : kChaosThreads) {
    for (const char* spec : {"short-writes:4096", "eintr-storm:3"}) {
      SCOPED_TRACE(std::string(spec) + " at threads " +
                   std::to_string(threads));
      TempDir dir{"complete"};
      util::FaultyVfs vfs = make_faulty(spec);
      const durable::CheckpointedRun run =
          run_gen(dir.str(), false, &vfs, threads);
      EXPECT_TRUE(run.completed);
      EXPECT_EQ(slurp(dir.file("log_spool.csv")), expected);
    }
  }
}

TEST(CheckpointChaos, EnospcDegradesGracefullyAndResumesByteIdentical) {
  TempDir clean{"ref2"};
  const std::string expected = reference_spool(clean);

  for (const std::size_t threads : kChaosThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TempDir dir{"enospc_run"};
    // A budget well below the full spool guarantees the disk "fills"
    // mid-run, but leaves room for the early commits to land.
    const std::uint64_t budget = expected.size() / 3;
    util::FaultyVfs vfs = make_faulty("enospc:" + std::to_string(budget));
    const durable::CheckpointedRun faulted =
        run_gen(dir.str(), false, &vfs, threads);
    ASSERT_FALSE(faulted.completed);
    EXPECT_NE(faulted.stop_reason.find("disk full"), std::string::npos)
        << faulted.stop_reason;
    EXPECT_GT(vfs.stats().enospc_injected, 0u);

    // The on-disk manifest must be consistent: whatever state it is in, a
    // clean-disk resume completes and reproduces the spool byte for byte.
    const durable::RunManifest manifest = durable::RunManifest::load(
        (dir.path / durable::RunManifest::kFileName).string());
    EXPECT_NE(manifest.state, "complete");

    const durable::CheckpointedRun resumed =
        run_gen(dir.str(), true, nullptr, threads);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(slurp(dir.file("log_spool.csv")), expected);
  }
}

TEST(CheckpointChaos, FsyncFailureStopsOnConsistentManifest) {
  TempDir clean{"ref3"};
  const std::string expected = reference_spool(clean);

  for (const std::size_t threads : kChaosThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TempDir dir{"fsync_run"};
    // Fsync #7 lands inside a later commit (header, initial manifest,
    // then three per commit), so at least one commit is durable first.
    util::FaultyVfs vfs = make_faulty("fsync-fail:7");
    bool threw = false;
    try {
      run_gen(dir.str(), false, &vfs, threads);
    } catch (const util::VfsError& error) {
      threw = true;
      EXPECT_FALSE(error.out_of_space());
    }
    ASSERT_TRUE(threw);
    EXPECT_EQ(vfs.stats().fsync_failures, 1u);

    const durable::CheckpointedRun resumed =
        run_gen(dir.str(), true, nullptr, threads);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(slurp(dir.file("log_spool.csv")), expected);
  }
}

TEST(CheckpointChaos, PowerCutNeverCommitsLostBytesAndResumesIdentical) {
  TempDir clean{"ref4"};
  const std::string expected = reference_spool(clean);

  for (const std::size_t threads : kChaosThreads) {
    for (const char* spec : {"power-cut:4", "torn-tail:4"}) {
      SCOPED_TRACE(std::string(spec) + " at threads " +
                   std::to_string(threads));
      TempDir dir{"cut_run"};
      util::FaultyVfs vfs = make_faulty(spec);
      EXPECT_THROW(run_gen(dir.str(), false, &vfs, threads),
                   util::SimulatedPowerLoss);
      EXPECT_TRUE(vfs.poisoned());

      // The surviving manifest may only describe bytes that survived the
      // cut — resume verifies every committed prefix CRC, so a manifest
      // naming lost bytes would refuse here instead of completing.
      const durable::CheckpointedRun resumed =
          run_gen(dir.str(), true, nullptr, threads);
      EXPECT_TRUE(resumed.completed);
      EXPECT_EQ(slurp(dir.file("log_spool.csv")), expected);
    }
  }
}

TEST(CheckpointChaos, PowerCutOutranksTheSinksEioOnASharedVfs) {
  // `generate --format both` writes its container through the same Vfs as
  // the checkpoint. The power cut fires on the writer thread, inside the
  // second commit (rename 4: the first manifest, then state + manifest
  // per commit, every 2 batches); from then on the sink's writes on the
  // calling thread fail with EIO. The run must report the power loss,
  // not the EIO it causes.
  for (const std::size_t threads : kChaosThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TempDir dir{"cut_sink"};
    util::FaultyVfs vfs = make_faulty("power-cut:4");
    const int fd = vfs.open(dir.file("sink.bin"), util::OpenMode::kTruncate);
    ASSERT_GE(fd, 0);
    workload::SyriaScenario scenario{chaos_config(threads)};
    durable::CheckpointOptions options =
        chaos_options(dir.file("ckpt"), false, &vfs);
    options.on_progress = [&vfs](std::size_t batch) {
      // Batch 3's commit is the one the cut lands in: hold batch 4's sink
      // until it has, so the sink surely meets the EIO first.
      if (batch != 3) return;
      for (int waited = 0; waited < 10'000 && !vfs.poisoned(); ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    const auto sink = [&](const proxy::LogRecord&) {
      if (util::write_fully(vfs, fd, "r")) return;
      const int code = errno;
      throw util::VfsError(std::string("sink: ") + std::strerror(code), code);
    };
    EXPECT_THROW(durable::run_checkpointed(scenario, options, sink),
                 util::SimulatedPowerLoss);
    EXPECT_TRUE(vfs.poisoned());
    vfs.close(fd);
  }
}

// --- columnar writer under chaos --------------------------------------------

TEST(ColfmtChaos, ShortWritesProduceIdenticalContainer) {
  TempDir dir{"col"};
  const auto write_container = [&](const char* name, util::Vfs* vfs) {
    colfmt::WriterOptions options;
    options.block_rows = 256;
    options.vfs = vfs;
    colfmt::Writer writer{dir.file(name), options};
    for (int i = 0; i < 2'000; ++i) writer.add(make_record(i));
    return writer.finish();
  };
  const util::ArtifactInfo clean = write_container("clean.col", nullptr);
  util::FaultyVfs shorts = make_faulty("short-writes:512");
  const util::ArtifactInfo faulted = write_container("short.col", &shorts);
  EXPECT_EQ(clean.bytes, faulted.bytes);
  EXPECT_EQ(clean.crc32, faulted.crc32);
  EXPECT_EQ(slurp(dir.file("clean.col")), slurp(dir.file("short.col")));
  EXPECT_GT(shorts.stats().short_writes, 0u);
}

TEST(ColfmtChaos, EnospcFailsLoudWithoutArtifact) {
  TempDir dir{"col_enospc"};
  util::FaultyVfs vfs = make_faulty("enospc:2048");
  colfmt::WriterOptions options;
  options.block_rows = 256;
  options.vfs = &vfs;
  bool threw = false;
  try {
    colfmt::Writer writer{dir.file("out.col"), options};
    for (int i = 0; i < 5'000; ++i) writer.add(make_record(i));
    writer.finish();
  } catch (const util::VfsError& error) {
    threw = true;
    EXPECT_TRUE(error.out_of_space());
  }
  EXPECT_TRUE(threw);
  EXPECT_FALSE(fs::exists(dir.file("out.col")));
}

// --- spool tail rotation ----------------------------------------------------

TEST(SpoolTailChaos, SurvivesRotationAndReportsGap) {
  TempDir dir{"rotate"};
  const std::string spool = dir.file("log_spool.csv");
  const auto write_spool = [&](int first, int count) {
    std::ofstream out{spool, std::ios::binary | std::ios::trunc};
    out << proxy::log_csv_header() << '\n';
    for (int i = first; i < first + count; ++i)
      out << proxy::to_csv(make_record(i)) << '\n';
  };

  write_spool(0, 3);
  analysis::SpoolTail tail{spool};
  std::vector<proxy::LogRecord> seen;
  const auto collect = [&](const proxy::LogRecordView& r) {
    proxy::assign(seen.emplace_back(), r);
  };
  EXPECT_EQ(tail.poll(collect), 3u);
  EXPECT_EQ(tail.gaps(), 0u);

  // Rotate: unlink + recreate (new inode, shorter content). The tail must
  // reopen from the top of the new file instead of wedging.
  fs::remove(spool);
  write_spool(100, 2);
  EXPECT_EQ(tail.poll(collect), 2u);
  EXPECT_EQ(tail.gaps(), 1u);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(proxy::to_csv(seen[3]), proxy::to_csv(make_record(100)));

  // In-place truncation counts too.
  write_spool(200, 1);
  EXPECT_EQ(tail.poll(collect), 1u);
  EXPECT_EQ(tail.gaps(), 2u);
  EXPECT_EQ(proxy::to_csv(seen.back()), proxy::to_csv(make_record(200)));
}

}  // namespace
