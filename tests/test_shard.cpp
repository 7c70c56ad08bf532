// Multi-process sharded farm: deterministic proxy assignment, the
// status and data frame protocols (round trips and a seeded mutation
// sweep of every decoder), worker-chaos plans, the worker fed through its
// data pipe, the supervising coordinator (real fork/SIGKILL/restart/
// resume), graceful degradation after an exhausted restart budget, and
// the k-way spool merge — including the headline contract that
// `--workers N` emits a log byte-identical to the single-process run,
// even across injected worker deaths and corrupted data frames.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "durable/manifest.h"
#include "fault/worker_chaos.h"
#include "policy/syria.h"
#include "proxy/log_io.h"
#include "shard/coordinator.h"
#include "shard/merge.h"
#include "shard/plan.h"
#include "shard/protocol.h"
#include "shard/worker.h"
#include "util/cancel.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "util/subprocess.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
namespace fs = std::filesystem;

// --- fixtures --------------------------------------------------------------

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

/// The single-process ground truth: header + every record, exactly the
/// bytes the merged shard output must reproduce.
std::string reference_log(const workload::ScenarioConfig& config) {
  workload::SyriaScenario scenario{config};
  std::string out{proxy::log_csv_header()};
  out += '\n';
  scenario.run([&](const proxy::LogRecord& record) {
    out += proxy::to_csv(record);
    out += '\n';
  });
  return out;
}

shard::CoordinatorOptions sharded_options(const workload::ScenarioConfig& cfg,
                                          const TempDir& dir,
                                          std::size_t workers) {
  shard::CoordinatorOptions options;
  options.config = cfg;
  options.directory = (dir.path / "ck").string();
  options.out_path = (dir.path / "merged.csv").string();
  options.workers = workers;
  options.restart_backoff_ms = 10;  // keep chaos tests fast
  return options;
}

// --- plan ------------------------------------------------------------------

TEST(ShardPlan, MasksPartitionTheFarm) {
  for (const std::size_t workers : {1, 2, 3, 4, 7, 9}) {
    std::uint64_t seen = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::uint64_t mask =
          shard::proxy_mask_for(42, w, workers, policy::kProxyCount);
      EXPECT_EQ(seen & mask, 0u)
          << "overlap at worker " << w << "/" << workers;
      seen |= mask;
    }
    EXPECT_EQ(seen, (std::uint64_t{1} << policy::kProxyCount) - 1)
        << workers << " workers do not cover the farm";
  }
}

TEST(ShardPlan, OwnerMatchesMaskAndIsDeterministic) {
  const std::size_t workers = 3;
  for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
    const std::size_t owner = shard::owner_of_proxy(7, p, workers);
    EXPECT_LT(owner, workers);
    EXPECT_EQ(owner, shard::owner_of_proxy(7, p, workers));
    const std::uint64_t mask =
        shard::proxy_mask_for(7, owner, workers, policy::kProxyCount);
    EXPECT_NE(mask & (std::uint64_t{1} << p), 0u);
  }
  // A different seed reshuffles at least one proxy.
  bool any_moved = false;
  for (std::size_t p = 0; p < policy::kProxyCount; ++p)
    any_moved |= shard::owner_of_proxy(7, p, workers) !=
                 shard::owner_of_proxy(1234567, p, workers);
  EXPECT_TRUE(any_moved);
}

TEST(ShardPlan, MaskHelpersAndNames) {
  EXPECT_EQ(shard::proxies_in_mask(0b101001),
            (std::vector<std::size_t>{0, 3, 5}));
  EXPECT_TRUE(shard::proxies_in_mask(0).empty());
  EXPECT_EQ(shard::shard_dir_name(0), "shard-00");
  EXPECT_EQ(shard::shard_dir_name(11), "shard-11");
  EXPECT_EQ(shard::worker_command(2, 4, 0x12), "generate-shard:2/4:mask=0x12");
}

// --- protocol --------------------------------------------------------------

TEST(ShardProtocol, EncodeDecodeRoundTrip) {
  for (const auto type :
       {shard::MessageType::kHello, shard::MessageType::kBatchDone,
        shard::MessageType::kHeartbeat, shard::MessageType::kShutdown}) {
    shard::Message message{type, 3, 0x1122334455667788ull, 42};
    const std::string payload = shard::encode(message);
    EXPECT_EQ(payload.size(), 25u);
    const auto decoded = shard::decode(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, message.type);
    EXPECT_EQ(decoded->worker, message.worker);
    EXPECT_EQ(decoded->batch, message.batch);
    EXPECT_EQ(decoded->status, message.status);
  }
  // HELLO's status is the first batch the worker will execute: its
  // manifest's next_batch, which is where the coordinator starts feeding.
  const auto hello =
      shard::decode(shard::encode({shard::MessageType::kHello, 2, 0, 17}));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, shard::MessageType::kHello);
  EXPECT_EQ(hello->status, 17u);
}

TEST(ShardProtocol, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(shard::decode("").has_value());
  EXPECT_FALSE(shard::decode("short").has_value());
  std::string payload = shard::encode({shard::MessageType::kHello, 0, 0, 0});
  payload += 'x';
  EXPECT_FALSE(shard::decode(payload).has_value());
  std::string bad_type(25, '\0');
  bad_type[0] = static_cast<char>(99);
  EXPECT_FALSE(shard::decode(bad_type).has_value());
}

TEST(ShardProtocol, FrameReaderReassemblesBackToBackFrames) {
  util::Pipe pipe = util::make_pipe();
  util::set_nonblocking(pipe.read_fd);
  const std::string a = shard::encode({shard::MessageType::kHello, 1, 0, 0});
  const std::string b =
      shard::encode({shard::MessageType::kBatchDone, 1, 5, 999});
  // Two frames written back to back arrive as one readable blob...
  ASSERT_TRUE(util::write_frame(pipe.write_fd, a));
  ASSERT_TRUE(util::write_frame(pipe.write_fd, b));
  util::FrameReader reader;
  ASSERT_TRUE(reader.pump(pipe.read_fd));
  const auto first = reader.next();
  const auto second = reader.next();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(shard::decode(*first)->type, shard::MessageType::kHello);
  EXPECT_EQ(shard::decode(*second)->batch, 5u);
  EXPECT_FALSE(reader.next().has_value());
  // ...and EOF after the writer closes reports cleanly, nothing pending.
  util::close_fd(pipe.write_fd);
  EXPECT_FALSE(reader.pump(pipe.read_fd));
  EXPECT_EQ(reader.pending_bytes(), 0u);
  util::close_fd(pipe.read_fd);
}

TEST(ShardProtocol, FrameReaderRejectsOversizedPrefix) {
  util::Pipe pipe = util::make_pipe();
  util::set_nonblocking(pipe.read_fd);
  // A foreign/corrupt writer: length prefix far beyond kMaxFramePayload.
  const unsigned char garbage[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(pipe.write_fd, garbage, sizeof garbage),
            static_cast<ssize_t>(sizeof garbage));
  util::FrameReader reader;
  ASSERT_TRUE(reader.pump(pipe.read_fd));
  EXPECT_THROW(reader.next(), std::runtime_error);
  util::close_fd(pipe.read_fd);
  util::close_fd(pipe.write_fd);
}

TEST(ShardProtocol, FrameReaderDrainsTenThousandFramesFromOnePump) {
  // Consumed frames are dropped once per pump, not once per frame: one
  // pump holding 10,000 frames drains in one linear pass.
  const fs::path path =
      fs::path(::testing::TempDir()) / "syrwatch_ten_thousand_frames.bin";
  constexpr std::uint64_t kFrames = 10'000;
  {
    std::string stream;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      const std::size_t start = util::begin_frame(stream);
      stream += shard::encode({shard::MessageType::kHeartbeat, 1, i, 0});
      util::finish_frame(stream, start);
    }
    std::ofstream out{path, std::ios::binary};
    out << stream;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  util::FrameReader reader;
  EXPECT_FALSE(reader.pump(fd));  // the whole file, then EOF
  std::uint64_t drained = 0;
  while (const auto payload = reader.next()) {
    const auto message = shard::decode(*payload);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->batch, drained);
    ++drained;
  }
  EXPECT_EQ(drained, kFrames);
  EXPECT_EQ(reader.pending_bytes(), 0u);
  util::close_fd(fd);
  fs::remove(path);
}

// --- data channel: batch frames ---------------------------------------------

bool same_request(const proxy::Request& a, const proxy::Request& b) {
  return a.time == b.time && a.user_id == b.user_id &&
         a.user_agent == b.user_agent && a.method == b.method &&
         a.url == b.url && a.dest_ip == b.dest_ip &&
         a.cacheable == b.cacheable &&
         std::bit_cast<std::uint64_t>(a.dest_unreachable_prob) ==
             std::bit_cast<std::uint64_t>(b.dest_unreachable_prob) &&
         a.inner_path == b.inner_path && a.inner_query == b.inner_query;
}

/// The payload of `batch`'s frame for `mask`, without its length prefix.
std::string batch_payload(const workload::RoutedBatch& batch,
                          std::uint64_t mask) {
  std::string frame;
  shard::append_batch_frame(batch, mask, frame);
  return frame.substr(4);
}

constexpr std::uint64_t kAllProxies =
    (std::uint64_t{1} << policy::kProxyCount) - 1;

TEST(ShardDataChannel, BatchFrameCarriesEachWorkersShareExactly) {
  const auto config = small_config(20'000, 2);
  const workload::SyriaScenario scenario{config};
  workload::RoutedBatch batch;
  ASSERT_TRUE(scenario.generate_batch(3, batch));
  const std::size_t workers = 3;
  std::size_t delivered = 0;
  std::size_t total = 0;
  for (const workload::RoutedShard& shard : batch.shards)
    total += shard.requests.size();
  for (std::size_t w = 0; w < workers; ++w) {
    const std::uint64_t mask =
        shard::proxy_mask_for(config.seed, w, workers, policy::kProxyCount);
    const std::string payload = batch_payload(batch, mask);
    workload::RoutedBatch decoded;
    shard::decode_batch_frame(payload, mask, decoded);
    EXPECT_EQ(decoded.index, 3u);
    ASSERT_EQ(decoded.shards.size(), batch.shards.size());
    for (std::size_t i = 0; i < batch.shards.size(); ++i) {
      const workload::RoutedShard& full = batch.shards[i];
      const workload::RoutedShard& mine = decoded.shards[i];
      std::size_t next = 0;
      for (std::size_t k = 0; k < full.requests.size(); ++k) {
        if (((mask >> full.proxy_of[k]) & 1) == 0) continue;
        ASSERT_LT(next, mine.requests.size());
        EXPECT_EQ(mine.sequence[next], k);
        EXPECT_EQ(mine.proxy_of[next], full.proxy_of[k]);
        EXPECT_TRUE(same_request(mine.requests[next], full.requests[k]))
            << "shard " << i << " request " << k;
        ++next;
      }
      EXPECT_EQ(next, mine.requests.size());
      delivered += mine.requests.size();
    }
    // Re-encoding what a worker received reproduces its frame: the
    // decoder keeps every sequence, so nothing about the merge key is
    // lost in transit.
    EXPECT_EQ(batch_payload(decoded, mask), payload);
  }
  EXPECT_EQ(delivered, total);
}

TEST(ShardDataChannel, DecoderRefusesAProxyOutsideTheMask) {
  const workload::SyriaScenario scenario{small_config(20'000, 1)};
  workload::RoutedBatch batch;
  ASSERT_TRUE(scenario.generate_batch(5, batch));
  const std::string payload = batch_payload(batch, kAllProxies);
  workload::RoutedBatch decoded;
  EXPECT_THROW(shard::decode_batch_frame(payload, kAllProxies & ~1u, decoded),
               util::FrameError);
}

// --- seeded mutation sweep of every shard decoder ---------------------------

/// A frame payload small enough to mutate at every byte: a few requests of
/// a real run, chosen so every optional field is present somewhere.
workload::RoutedBatch small_batch() {
  const workload::SyriaScenario scenario{small_config(60'000, 1)};
  workload::RoutedBatch small;
  small.index = 2;
  small.shards.resize(3);
  bool have_ip = false, have_unreachable = false, have_https = false;
  workload::RoutedBatch full;
  for (std::size_t b = 0; b < scenario.batch_count(); ++b) {
    EXPECT_TRUE(scenario.generate_batch(b, full));
    for (std::size_t i = 0; i < full.shards.size(); ++i) {
      const workload::RoutedShard& shard = full.shards[i];
      for (std::size_t k = 0; k < shard.requests.size(); ++k) {
        const proxy::Request& request = shard.requests[k];
        const bool wanted =
            (b == 0 && i < 3 && k < 3) || (!have_ip && request.dest_ip) ||
            (!have_unreachable && request.dest_unreachable_prob > 0.0) ||
            (!have_https && request.url.scheme == net::Scheme::kHttps);
        if (!wanted) continue;
        have_ip |= request.dest_ip.has_value();
        have_unreachable |= request.dest_unreachable_prob > 0.0;
        have_https |= request.url.scheme == net::Scheme::kHttps;
        workload::RoutedShard& into = small.shards[std::min<std::size_t>(i, 2)];
        into.sequence.push_back(static_cast<std::uint32_t>(
            into.sequence.empty() ? k : into.sequence.back() + 1 + k % 3));
        into.requests.push_back(request);
        into.proxy_of.push_back(shard.proxy_of[k]);
      }
    }
  }
  EXPECT_TRUE(have_ip && have_unreachable && have_https);
  return small;
}

/// Rewrites the leading CRC32 after a forgery, so the structural checks
/// behind the checksum are what the input exercises.
void reseal(std::string& payload) {
  const std::uint32_t crc =
      util::crc32_of(std::string_view{payload}.substr(4));
  for (int i = 0; i < 4; ++i)
    payload[i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
}

enum class Outcome { kRefused, kExact };

/// decode_batch_frame must refuse `payload` with a FrameError or accept
/// exactly what the bytes encode: accepted content re-encodes to the same
/// bytes. Anything else — another exception, a crash — fails the test.
Outcome check_batch_decoder(const std::string& payload) {
  workload::RoutedBatch decoded;
  try {
    shard::decode_batch_frame(payload, kAllProxies, decoded);
  } catch (const util::FrameError&) {
    return Outcome::kRefused;
  }
  EXPECT_EQ(batch_payload(decoded, kAllProxies), payload)
      << "accepted bytes it does not encode";
  return Outcome::kExact;
}

std::string varint(std::uint64_t value) {
  std::string out;
  while (value >= 0x80) {
    out += static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  out += static_cast<char>(value);
  return out;
}

TEST(ShardFuzz, BatchFrameDecoderRefusesOrReadsExactly) {
  const workload::RoutedBatch batch = small_batch();
  const std::string payload = batch_payload(batch, kAllProxies);
  ASSERT_EQ(check_batch_decoder(payload), Outcome::kExact);
  util::Rng rng{0x5EED'F00D};

  // Truncation at every byte, and single-byte flips at every byte: the
  // checksum refuses all of them.
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_EQ(check_batch_decoder(payload.substr(0, cut)), Outcome::kRefused)
        << "truncated to " << cut;
  for (std::size_t at = 0; at < payload.size(); ++at) {
    std::string flipped = payload;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 + rng.uniform(255)));
    EXPECT_EQ(check_batch_decoder(flipped), Outcome::kRefused)
        << "flip at " << at;
  }

  // Forged bytes behind a valid checksum — every length, count, index and
  // flag the payload holds — reach the structural checks.
  std::size_t refused = 0;
  for (std::size_t at = 4; at < payload.size(); ++at) {
    for (int round = 0; round < 3; ++round) {
      std::string forged = payload;
      forged[at] = static_cast<char>(rng.uniform(256));
      reseal(forged);
      refused += check_batch_decoder(forged) == Outcome::kRefused;
    }
  }
  EXPECT_GT(refused, 0u);

  // Forged headers: the counts are bounded by the payload before
  // anything is allocated for them.
  const std::string header = std::string(4, '\0') + 'B' + varint(batch.index);
  const std::string counts = varint(batch.shards.size());
  const std::size_t body_at = header.size() + counts.size();
  for (const std::uint64_t shards :
       {std::uint64_t{0}, std::uint64_t{129}, std::uint64_t{1} << 40}) {
    std::string forged = header + varint(shards) + payload.substr(body_at);
    reseal(forged);
    EXPECT_EQ(check_batch_decoder(forged), Outcome::kRefused) << shards;
  }
  for (const std::uint64_t count :
       {std::uint64_t{1} << 32, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    std::string forged = header + counts + varint(count) +
                         payload.substr(body_at + varint(
                             batch.shards[0].requests.size()).size());
    reseal(forged);
    EXPECT_EQ(check_batch_decoder(forged), Outcome::kRefused) << count;
  }
  {
    // A non-minimal varint for the batch index decodes to the same value
    // through different bytes: refused.
    std::string forged = std::string(4, '\0') + 'B' +
                         static_cast<char>(0x80 | batch.index) + '\0' +
                         payload.substr(header.size());
    reseal(forged);
    EXPECT_EQ(check_batch_decoder(forged), Outcome::kRefused);
  }
  {
    std::string forged = payload + '\0';
    reseal(forged);
    EXPECT_EQ(check_batch_decoder(forged), Outcome::kRefused);
  }
  {
    // A string-table entry repeating an earlier one: the encoder would
    // have written a reference, so the bytes are not its output.
    workload::RoutedBatch pair;
    pair.shards.resize(1);
    for (const char* agent : {"agent-one", "agent-two"}) {
      proxy::Request request;
      request.user_agent = agent;
      request.url.host = "example.org";
      pair.shards[0].requests.push_back(request);
      pair.shards[0].proxy_of.push_back(0);
    }
    std::string forged = batch_payload(pair, kAllProxies);
    ASSERT_EQ(check_batch_decoder(forged), Outcome::kExact);
    forged.replace(forged.find("agent-two"), 9, "agent-one");
    reseal(forged);
    EXPECT_EQ(check_batch_decoder(forged), Outcome::kRefused);
  }
}

TEST(ShardFuzz, StatusDecoderRefusesOrReadsExactly) {
  util::Rng rng{0xDEC0DE};
  for (const auto type :
       {shard::MessageType::kHello, shard::MessageType::kBatchDone,
        shard::MessageType::kHeartbeat, shard::MessageType::kShutdown}) {
    const std::string payload =
        shard::encode({type, rng(), rng(), rng()});
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
      EXPECT_FALSE(shard::decode(payload.substr(0, cut)).has_value());
    for (std::size_t extra = 1; extra <= 8; ++extra)
      EXPECT_FALSE(
          shard::decode(payload + std::string(extra, 'x')).has_value());
    for (std::size_t at = 0; at < payload.size(); ++at) {
      for (int round = 0; round < 8; ++round) {
        std::string forged = payload;
        forged[at] = static_cast<char>(rng.uniform(256));
        // Fixed width, no slack: whatever decodes re-encodes exactly.
        if (const auto message = shard::decode(forged)) {
          EXPECT_EQ(shard::encode(*message), forged);
        }
      }
    }
  }
}

/// What a fresh reader makes of `bytes` once their writer has closed: the
/// payloads it yields, in order, until the stream ends or it refuses one.
struct Drained {
  std::vector<std::string> payloads;
  bool refused = false;
  std::size_t pending = 0;  ///< unconsumed bytes, when not refused
};

Drained drain(std::string_view bytes, std::size_t limit) {
  util::Pipe pipe = util::make_pipe();
  util::set_nonblocking(pipe.read_fd);
  EXPECT_EQ(::write(pipe.write_fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  util::close_fd(pipe.write_fd);
  util::FrameReader reader{limit};
  EXPECT_FALSE(reader.pump(pipe.read_fd));
  util::close_fd(pipe.read_fd);
  Drained out;
  try {
    while (const auto payload = reader.next())
      out.payloads.emplace_back(*payload);
    out.pending = reader.pending_bytes();
  } catch (const util::FrameError&) {
    out.refused = true;
  }
  return out;
}

TEST(ShardFuzz, FrameReaderYieldsOnlyWholeFramesOrRefuses) {
  const std::vector<std::string> payloads{
      shard::encode({shard::MessageType::kHello, 0, 0, 3}), "",
      std::string(300, 'q'),
      shard::encode({shard::MessageType::kShutdown, 0, 9, 0})};
  std::string stream;
  std::vector<std::size_t> ends;
  for (const std::string& payload : payloads) {
    const std::size_t start = util::begin_frame(stream);
    stream += payload;
    util::finish_frame(stream, start);
    ends.push_back(stream.size());
  }
  // Truncation at every byte: the whole frames before the cut, in order,
  // and the rest held back as pending.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    const Drained got = drain(std::string_view{stream}.substr(0, cut), 512);
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    ASSERT_FALSE(got.refused) << "cut at " << cut;
    ASSERT_EQ(got.payloads.size(), whole) << "cut at " << cut;
    for (std::size_t i = 0; i < whole; ++i)
      EXPECT_EQ(got.payloads[i], payloads[i]);
    EXPECT_EQ(got.pending, cut - (whole == 0 ? 0 : ends[whole - 1]));
  }
  // Forged and oversized length prefixes: a prefix beyond the limit is a
  // FrameError; one within it frames exactly the bytes that follow (what
  // the rest of the stream then frames is forged too).
  util::Rng rng{0xF4A3E};
  for (int round = 0; round < 200; ++round) {
    std::string forged = stream;
    const std::uint32_t size =
        round < 100 ? static_cast<std::uint32_t>(rng.uniform(1024))
                    : static_cast<std::uint32_t>(rng());
    for (int i = 0; i < 4; ++i)
      forged[i] = static_cast<char>((size >> (8 * i)) & 0xFF);
    const Drained got = drain(forged, 512);
    if (size > 512) {
      EXPECT_TRUE(got.refused && got.payloads.empty()) << size;
    } else if (size + 4 > forged.size()) {
      EXPECT_TRUE(!got.refused && got.payloads.empty()) << size;
      EXPECT_EQ(got.pending, forged.size());
    } else {
      ASSERT_FALSE(got.payloads.empty()) << size;
      EXPECT_EQ(got.payloads[0], forged.substr(4, size));
    }
  }
}

// --- worker chaos plans ----------------------------------------------------

TEST(WorkerChaos, NamedPlansAreDeterministicAndBounded) {
  EXPECT_TRUE(fault::make_worker_chaos("none", 1, 4, 21).empty());
  EXPECT_THROW(fault::make_worker_chaos("nope", 1, 4, 21),
               std::invalid_argument);

  const auto plan = fault::make_worker_chaos("worker-chaos", 9, 4, 21);
  const auto again = fault::make_worker_chaos("worker-chaos", 9, 4, 21);
  ASSERT_EQ(plan.events.size(), 2u);  // ceil(4/2) victims, one kill each
  std::set<std::size_t> victims;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const auto& event = plan.events[i];
    EXPECT_EQ(event.kind, fault::WorkerChaosEvent::Kind::kKill);
    EXPECT_LT(event.worker, 4u);
    EXPECT_GE(event.after_batch, 1u);
    EXPECT_LE(event.after_batch, 19u);  // within [1, total-2]
    EXPECT_EQ(event.worker, again.events[i].worker);
    EXPECT_EQ(event.after_batch, again.events[i].after_batch);
    victims.insert(event.worker);
  }
  EXPECT_EQ(victims.size(), plan.events.size()) << "victims must be distinct";
  EXPECT_FALSE(plan.describe().empty());

  const auto stall = fault::make_worker_chaos("worker-stall", 9, 4, 21);
  ASSERT_EQ(stall.events.size(), 1u);
  EXPECT_EQ(stall.events[0].kind, fault::WorkerChaosEvent::Kind::kStall);

  const auto garble = fault::make_worker_chaos("worker-garble", 9, 4, 21);
  ASSERT_EQ(garble.events.size(), 1u);
  EXPECT_EQ(garble.events[0].kind, fault::WorkerChaosEvent::Kind::kGarble);
  EXPECT_LT(garble.events[0].worker, 4u);
  EXPECT_GE(garble.events[0].after_batch, 1u);
}

// --- worker: fed through its data pipe --------------------------------------

/// SIGPIPE ignored while a test writes to a worker's data pipe.
struct SigpipeIgnored {
  struct sigaction saved {};
  SigpipeIgnored() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, &saved);
  }
  ~SigpipeIgnored() { ::sigaction(SIGPIPE, &saved, nullptr); }
  SigpipeIgnored(const SigpipeIgnored&) = delete;
  SigpipeIgnored& operator=(const SigpipeIgnored&) = delete;
};

/// A run_worker child forked from the test, with the test holding the
/// coordinator's ends of its two pipes.
struct ForkedWorker {
  pid_t pid = -1;
  int status_fd = -1;
  int data_fd = -1;

  ForkedWorker(workload::SyriaScenario& scenario,
               const std::string& directory) {
    const util::Pipe status = util::make_pipe();
    const util::Pipe data = util::make_pipe();
    std::fflush(nullptr);
    pid = ::fork();
    if (pid == 0) {
      util::close_fd(status.read_fd);
      util::close_fd(data.write_fd);
      shard::WorkerSpec spec;
      spec.scenario = &scenario;
      spec.worker = 0;
      spec.workers = 1;
      spec.proxy_mask = kAllProxies;
      spec.directory = directory;
      spec.commit_interval = 8;
      std::_Exit(shard::run_worker(spec, status.write_fd, data.read_fd));
    }
    util::close_fd(status.write_fd);
    util::close_fd(data.read_fd);
    status_fd = status.read_fd;
    data_fd = data.write_fd;
  }

  bool send(std::string_view bytes) const {
    return ::write(data_fd, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Closes the data pipe (the coordinator's death, as the worker sees
  /// it) and returns the worker's exit code.
  int finish() {
    util::close_fd(data_fd);
    data_fd = -1;
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// The first status frame: the worker's HELLO.
  std::optional<shard::Message> hello() const {
    char byte;
    std::string frame;
    while (frame.size() < 4 + 25 && ::read(status_fd, &byte, 1) == 1)
      frame += byte;
    if (frame.size() < 4 + 25) return std::nullopt;
    return shard::decode(std::string_view{frame}.substr(4));
  }

  ~ForkedWorker() {
    util::close_fd(status_fd);
    util::close_fd(data_fd);
    if (pid > 0) {  // a failed assertion skipped finish()
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ForkedWorker(const ForkedWorker&) = delete;
  ForkedWorker& operator=(const ForkedWorker&) = delete;
};

TEST(ShardWorker, MalformedDataFrameExitsWorkerError) {
  const SigpipeIgnored sigpipe;
  workload::SyriaScenario scenario{small_config(12'000, 1)};
  TempDir dir{"worker_garbage"};
  ForkedWorker worker{scenario, (dir.path / "shard-00").string()};
  const auto hello = worker.hello();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->status, 0u);  // fresh: starts at batch 0
  // A well-framed payload that is not a batch frame.
  std::string frame;
  const std::size_t start = util::begin_frame(frame);
  frame += "not a batch frame";
  util::finish_frame(frame, start);
  ASSERT_TRUE(worker.send(frame));
  EXPECT_EQ(worker.finish(), shard::kWorkerError);
}

TEST(ShardWorker, InputEofBeforeLastBatchCommitsAndInterrupts) {
  const SigpipeIgnored sigpipe;
  const auto config = small_config(12'000, 1);
  const std::string expected = reference_log(config);
  workload::SyriaScenario scenario{config};
  TempDir dir{"worker_eof"};
  const std::string shard_dir = (dir.path / "shard-00").string();
  workload::RoutedBatch batch;
  const auto frame_of = [&](std::size_t b) {
    EXPECT_TRUE(scenario.generate_batch(b, batch));
    std::string frame;
    shard::append_batch_frame(batch, kAllProxies, frame);
    return frame;
  };

  // Three batches, then the coordinator "dies": the worker commits what
  // it has (no commit was due at interval 8) and stops resumable.
  {
    ForkedWorker worker{scenario, shard_dir};
    for (std::size_t b = 0; b < 3; ++b) ASSERT_TRUE(worker.send(frame_of(b)));
    EXPECT_EQ(worker.finish(), shard::kWorkerInterrupted);
  }
  const auto manifest = durable::RunManifest::load(
      shard_dir + "/" + std::string(durable::RunManifest::kFileName));
  EXPECT_EQ(manifest.state, "interrupted");
  EXPECT_EQ(manifest.next_batch, 3u);

  // A restarted worker says where it resumes, and fed from there its
  // spool is the whole single-process log (it owns every proxy).
  {
    ForkedWorker worker{scenario, shard_dir};
    const auto hello = worker.hello();
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->status, 3u);
    for (std::size_t b = 3; b < scenario.batch_count(); ++b)
      ASSERT_TRUE(worker.send(frame_of(b)));
    EXPECT_EQ(worker.finish(), shard::kWorkerCompleted);
  }
  EXPECT_EQ(slurp(shard_dir + "/log_spool.csv"), expected);
}

// --- coordinator: byte-identity --------------------------------------------

TEST(ShardFarm, MergedOutputMatchesSingleProcessForAnyWorkerCount) {
  const auto config = small_config(20'000, 2);
  const std::string expected = reference_log(config);
  for (const std::size_t workers : {1, 2, 4, 7, 9}) {
    TempDir dir{"farm_w" + std::to_string(workers)};
    auto options = sharded_options(config, dir, workers);
    const auto run = shard::run_sharded(options);
    ASSERT_TRUE(run.completed);
    EXPECT_TRUE(run.degraded_shards.empty());
    EXPECT_EQ(run.restarts, 0u);
    EXPECT_EQ(slurp(options.out_path), expected)
        << "--workers " << workers << " diverged from single-process";
    EXPECT_EQ(run.manifest.workers, workers);
    EXPECT_EQ(run.manifest.state, "complete");
    // The coordinator manifest verifies as a unit: merged output plus one
    // "shard" artifact per spawned worker.
    const auto report =
        durable::verify_artifacts(run.manifest, options.directory);
    for (const auto& check : report.checks) EXPECT_TRUE(check.ok());
  }
}

TEST(ShardFarm, ThreadCountDoesNotLeakIntoShardedOutput) {
  auto config = small_config(12'000, 1);
  const std::string expected = reference_log(config);
  config.threads = 3;
  TempDir dir{"farm_threads"};
  auto options = sharded_options(config, dir, 2);
  const auto run = shard::run_sharded(options);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(slurp(options.out_path), expected);
}

// --- coordinator: supervision under real process death ---------------------

TEST(ShardFarm, SurvivesInjectedWorkerDeathBitIdentically) {
  const auto config = small_config(20'000, 2);
  const std::string expected = reference_log(config);
  TempDir dir{"farm_chaos"};
  auto options = sharded_options(config, dir, 4);
  options.worker_chaos = "worker-chaos";
  options.commit_interval = 2;
  // Only workers that own at least one proxy spawn at all.
  std::uint64_t live_workers = 0;
  for (std::size_t w = 0; w < options.workers; ++w)
    if (shard::proxy_mask_for(config.seed, w, options.workers,
                              policy::kProxyCount) != 0)
      ++live_workers;
  const auto run = shard::run_sharded(options);
  ASSERT_TRUE(run.completed);
  EXPECT_GE(run.kills_injected, 1u);
  EXPECT_GE(run.restarts, 1u);
  EXPECT_EQ(run.spawns, run.restarts + live_workers);
  EXPECT_TRUE(run.degraded_shards.empty());
  EXPECT_EQ(slurp(options.out_path), expected)
      << "restart-and-resume diverged from single-process";
}

TEST(ShardFarm, HeartbeatTimeoutDetectsAStalledWorker) {
  const auto config = small_config(12'000, 1);
  const std::string expected = reference_log(config);
  TempDir dir{"farm_stall"};
  auto options = sharded_options(config, dir, 2);
  options.worker_chaos = "worker-stall";
  // The stall sleeps 4x this window, so detection stays reliable; the
  // window itself must exceed the slowest per-batch time (heartbeats are
  // per-batch) or sanitizer slowdown turns healthy workers into false
  // positives and exhausts the restart budget.
  options.heartbeat_ms = 2500;
  const auto run = shard::run_sharded(options);
  ASSERT_TRUE(run.completed);
  EXPECT_GE(run.heartbeat_misses, 1u);
  EXPECT_GE(run.restarts, 1u);
  EXPECT_TRUE(run.degraded_shards.empty());
  EXPECT_EQ(slurp(options.out_path), expected);
}

TEST(ShardFarm, GarbledDataFrameRestartsBitIdentically) {
  // The coordinator corrupts one data frame: the worker refuses it and
  // exits kWorkerError, and its restart resumes from its checkpoint with
  // regenerated input.
  const auto config = small_config(20'000, 2);
  const std::string expected = reference_log(config);
  TempDir dir{"farm_garble"};
  auto options = sharded_options(config, dir, 4);
  options.worker_chaos = "worker-garble";
  const auto run = shard::run_sharded(options);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.restarts, 1u);
  EXPECT_TRUE(run.degraded_shards.empty());
  EXPECT_EQ(slurp(options.out_path), expected);
}

TEST(ShardFarm, LeavesTheCallersSigpipeDispositionAlone) {
  struct sigaction before {};
  ::sigaction(SIGPIPE, nullptr, &before);
  TempDir dir{"farm_sigpipe"};
  auto options = sharded_options(small_config(8'000, 1), dir, 2);
  ASSERT_TRUE(shard::run_sharded(options).completed);
  struct sigaction after {};
  ::sigaction(SIGPIPE, nullptr, &after);
  EXPECT_EQ(after.sa_handler, before.sa_handler);
}

TEST(ShardFarm, ExhaustedRestartBudgetDegradesGracefully) {
  const auto config = small_config(20'000, 2);
  const std::string expected = reference_log(config);
  TempDir dir{"farm_degraded"};
  auto options = sharded_options(config, dir, 4);
  options.worker_chaos = "worker-chaos";
  options.restart_budget = 0;   // first death abandons the shard
  options.commit_interval = 1;  // every batch durable; loss is the tail
  const auto run = shard::run_sharded(options);
  // Degradation is not failure: the run completes with what survived.
  ASSERT_TRUE(run.completed);
  EXPECT_GE(run.shards_abandoned, 1u);
  EXPECT_EQ(run.restarts, 0u);
  ASSERT_FALSE(run.degraded_shards.empty());
  EXPECT_EQ(run.manifest.degraded_shards, run.degraded_shards);
  EXPECT_EQ(run.manifest.state, "complete");
  EXPECT_FALSE(shard::describe_degraded(run.shards).empty());
  // The merged log is the single-process log minus the abandoned shards'
  // uncommitted tails: never larger, and a subset of its lines.
  const std::string merged = slurp(options.out_path);
  EXPECT_LE(merged.size(), expected.size());
  std::set<std::string> expected_lines;
  {
    std::istringstream ref{expected};
    for (std::string line; std::getline(ref, line);)
      expected_lines.insert(line);
  }
  std::istringstream in{merged};
  for (std::string line; std::getline(in, line);)
    EXPECT_TRUE(expected_lines.count(line))
        << "merged line absent from reference: " << line;
  // The manifest round-trips the degradation marker.
  const auto reloaded = durable::RunManifest::load(
      options.directory + "/" + std::string(durable::RunManifest::kFileName));
  EXPECT_EQ(reloaded.degraded_shards, run.degraded_shards);
}

TEST(ShardFarm, CancellationInterruptsAndResumesBitIdentically) {
  const auto config = small_config(60'000, 2);
  const std::string expected = reference_log(config);
  TempDir dir{"farm_cancel"};
  auto options = sharded_options(config, dir, 2);
  options.commit_interval = 1;
  util::CancelToken cancel;
  cancel.set_deadline_after(0.08);
  options.cancel = &cancel;
  const auto first = shard::run_sharded(options);
  if (first.completed)
    GTEST_SKIP() << "run outpaced the deadline on this machine";
  EXPECT_EQ(first.manifest.state, "interrupted");

  cancel.reset();
  options.resume = true;
  const auto second = shard::run_sharded(options);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(slurp(options.out_path), expected);
}

TEST(ShardFarm, ResumeRefusesTopologyAndOccupiedDirMismatches) {
  const auto config = small_config(12'000, 1);
  TempDir dir{"farm_refuse"};
  auto options = sharded_options(config, dir, 2);
  ASSERT_TRUE(shard::run_sharded(options).completed);
  // Same directory without --resume: refused, nothing clobbered.
  EXPECT_THROW(shard::run_sharded(options), std::runtime_error);
  // Resume under a different worker count: the proxy assignment would
  // change, so the coordinator refuses up front.
  options.resume = true;
  options.workers = 3;
  EXPECT_THROW(shard::run_sharded(options), std::runtime_error);
  // Rerun of the completed run with the original topology is idempotent —
  // a pure re-merge, no worker respawned.
  options.workers = 2;
  const auto rerun = shard::run_sharded(options);
  ASSERT_TRUE(rerun.completed);
  EXPECT_EQ(rerun.spawns, 0u);
}

// --- merge edge cases -------------------------------------------------------

/// Runs a real 2-worker sharded generation and returns its options (the
/// shard directories under options.directory are then tampered with).
shard::CoordinatorOptions completed_two_shard_run(const TempDir& dir,
                                                  std::uint64_t requests) {
  auto options = sharded_options(small_config(requests, 1), dir, 2);
  const auto run = shard::run_sharded(options);
  EXPECT_TRUE(run.completed);
  return options;
}

std::vector<shard::ShardInput> strict_inputs(
    const shard::CoordinatorOptions& options) {
  std::vector<shard::ShardInput> inputs;
  for (std::size_t w = 0; w < options.workers; ++w) {
    const std::uint64_t mask = shard::proxy_mask_for(
        options.config.seed, w, options.workers, policy::kProxyCount);
    if (mask == 0) continue;  // never spawned, no directory to read
    const std::string name = shard::shard_dir_name(w);
    inputs.push_back({name, options.directory + "/" + name, mask, false});
  }
  return inputs;
}

TEST(ShardMerge, EmptyShardSpoolContributesNothing) {
  TempDir dir{"merge_empty"};
  const auto options = completed_two_shard_run(dir, 8'000);
  const std::string expected = slurp(options.out_path);

  auto inputs = strict_inputs(options);
  // A degraded shard that died before writing anything: bare directory,
  // no manifest, no spool.
  const std::string ghost_dir = options.directory + "/shard-99";
  fs::create_directories(ghost_dir);
  inputs.push_back({"shard-99", ghost_dir, 0, true});
  // And one that managed only the csv header (empty spool, zero keys).
  const std::string header_dir = options.directory + "/shard-98";
  fs::create_directories(header_dir);
  {
    std::ofstream spool{header_dir + "/log_spool.csv"};
    spool << proxy::log_csv_header() << "\n";
  }
  inputs.push_back({"shard-98", header_dir, 0, true});

  const std::string out = (dir.path / "remerged.csv").string();
  const auto result = shard::merge_shards(inputs, out);
  EXPECT_EQ(slurp(out), expected);
  ASSERT_EQ(result.shards.size(), 4u);
  EXPECT_EQ(result.shards[2].records, 0u);
  EXPECT_EQ(result.shards[3].records, 0u);
  EXPECT_TRUE(result.shards[2].lenient);
}

TEST(ShardMerge, TornTailRecoveredLeniently) {
  TempDir dir{"merge_torn"};
  const auto options = completed_two_shard_run(dir, 8'000);
  const std::string expected = slurp(options.out_path);

  // Crash-wound shard-01: manifest gone, spool torn mid-record (no
  // trailing newline). The committed lines and their keys survive, so a
  // lenient merge still reconstructs the exact original interleaving.
  const std::string wounded = options.directory + "/shard-01";
  fs::remove(wounded + "/manifest.json");
  {
    std::ofstream spool{wounded + "/log_spool.csv",
                        std::ios::app | std::ios::binary};
    spool << "2011-07-2";  // torn final record
  }
  auto inputs = strict_inputs(options);
  inputs[1].degraded = true;

  const std::string out = (dir.path / "remerged.csv").string();
  const auto result = shard::merge_shards(inputs, out);
  EXPECT_EQ(slurp(out), expected);
  EXPECT_TRUE(result.shards[1].lenient);
  EXPECT_TRUE(result.shards[1].read_stats.truncated_tail);
  // The fold propagates the damage to the combined stats the coverage
  // report consumes.
  EXPECT_TRUE(result.combined.truncated_tail);
  EXPECT_TRUE(result.combined.header_present);
  EXPECT_EQ(result.combined.recovered, result.records);
}

TEST(ShardMerge, SurvivingShardMustVerify) {
  TempDir dir{"merge_strict"};
  const auto options = completed_two_shard_run(dir, 8'000);
  // Flip one byte inside shard-00's committed spool. As a *surviving*
  // shard it must verify, and the merge must say which shard failed.
  {
    std::fstream spool{options.directory + "/shard-00/log_spool.csv",
                       std::ios::in | std::ios::out | std::ios::binary};
    ASSERT_TRUE(spool.good());
    spool.seekp(64);
    spool.put('~');
  }
  const auto inputs = strict_inputs(options);
  try {
    shard::merge_shards(inputs, (dir.path / "out.csv").string());
    FAIL() << "corrupt surviving shard merged silently";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("shard-00"), std::string::npos)
        << error.what();
  }
}

TEST(ShardMerge, FoldReadStatsAggregates) {
  proxy::LogReadStats total;
  total.header_present = true;
  proxy::LogReadStats a;
  a.lines = 10;
  a.data_lines = 9;
  a.recovered = 8;
  a.empty_lines = 1;
  a.header_present = true;
  a.skipped[1] = 1;
  a.first_error_line[1] = 7;
  proxy::LogReadStats b;
  b.lines = 5;
  b.data_lines = 4;
  b.recovered = 4;
  b.header_present = true;
  b.truncated_tail = true;
  shard::fold_read_stats(total, a);
  shard::fold_read_stats(total, b);
  EXPECT_EQ(total.lines, 15u);
  EXPECT_EQ(total.data_lines, 13u);
  EXPECT_EQ(total.recovered, 12u);
  EXPECT_EQ(total.empty_lines, 1u);
  EXPECT_TRUE(total.header_present);
  EXPECT_TRUE(total.truncated_tail);
  EXPECT_EQ(total.skipped[1], 1u);
  EXPECT_EQ(total.first_error_line[1], 7u);
  EXPECT_TRUE(total.consistent());
  // header_present is an AND: one headerless shard taints the fold.
  proxy::LogReadStats c;
  shard::fold_read_stats(total, c);
  EXPECT_FALSE(total.header_present);
}

}  // namespace
