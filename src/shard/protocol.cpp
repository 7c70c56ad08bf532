#include "shard/protocol.h"

#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/checksum.h"
#include "util/subprocess.h"
#include "workload/scenario.h"

namespace syrwatch::shard {

namespace {

constexpr std::size_t kFrameBytes = 1 + 3 * 8;

constexpr char kBatchTag = 'B';
/// The smallest encoded request: the flags byte and eleven one-byte
/// varints. Bounds every count before anything is allocated for it.
constexpr std::size_t kMinRequestBytes = 12;
constexpr std::uint64_t kMaxSequence = 0xFFFFFFFFu;

void put_le(std::string& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out += static_cast<char>((value >> (8 * i)) & 0xFF);
}

std::uint64_t get_le(std::string_view in, std::size_t offset, int bytes) {
  std::uint64_t value = 0;
  for (int i = 0; i < bytes; ++i)
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[offset + i]))
             << (8 * i);
  return value;
}

void put_varint(std::string& out, std::uint64_t value) {
  char bytes[10];
  std::size_t n = 0;
  while (value >= 0x80) {
    bytes[n++] = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  bytes[n++] = static_cast<char>(value);
  out.append(bytes, n);
}

void put_string(std::string& out, std::string_view text) {
  put_varint(out, text.size());
  out.append(text);
}

std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

/// The frame's table of agent and method strings: each distinct string is
/// written once, at first use, and referenced by index after that.
class StringTable {
 public:
  void put(std::string& out, std::string_view text) {
    const auto [it, inserted] =
        index_.try_emplace(text, static_cast<std::uint32_t>(index_.size()));
    put_varint(out, it->second);
    if (inserted) put_string(out, text);
  }

 private:
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

[[noreturn]] void fail(const std::string& what) {
  throw util::FrameError("batch frame: " + what);
}

/// Bounds-checked reader over a batch frame payload.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint64_t fixed(int bytes) {
    need(static_cast<std::size_t>(bytes));
    const std::uint64_t value = get_le(bytes_, pos_, bytes);
    pos_ += static_cast<std::size_t>(bytes);
    return value;
  }

  /// LEB128, minimal encodings only: encode never writes a trailing zero
  /// group, so accepting one would decode two byte strings to one value.
  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = u8();
      if (shift == 63 && byte > 1) fail("varint overflows 64 bits");
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) != 0) continue;
      if (byte == 0 && shift > 0) fail("non-minimal varint");
      return value;
    }
  }

  std::string_view string() {
    const std::uint64_t size = varint();
    need(size);
    const std::string_view text = bytes_.substr(pos_, size);
    pos_ += size;
    return text;
  }

 private:
  void need(std::uint64_t size) const {
    if (size > remaining()) fail("truncated payload");
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Mirror of StringTable: a new entry must take the next index and must
/// not repeat an existing string, or the payload is not one encode wrote.
class TableReader {
 public:
  std::string_view get(Cursor& in) {
    const std::uint64_t index = in.varint();
    if (index < entries_.size()) return entries_[index];
    if (index > entries_.size()) fail("string table index out of range");
    const std::string_view text = in.string();
    if (!seen_.insert(text).second) fail("duplicate string table entry");
    entries_.push_back(text);
    return text;
  }

 private:
  std::vector<std::string_view> entries_;
  std::unordered_set<std::string_view> seen_;
};

}  // namespace

std::string encode(const Message& message) {
  std::string out;
  out.reserve(kFrameBytes);
  out += static_cast<char>(message.type);
  put_le(out, message.worker, 8);
  put_le(out, message.batch, 8);
  put_le(out, message.status, 8);
  return out;
}

std::optional<Message> decode(std::string_view payload) {
  if (payload.size() != kFrameBytes) return std::nullopt;
  const auto type = static_cast<std::uint8_t>(payload[0]);
  if (type < static_cast<std::uint8_t>(MessageType::kHello) ||
      type > static_cast<std::uint8_t>(MessageType::kShutdown))
    return std::nullopt;
  Message message;
  message.type = static_cast<MessageType>(type);
  message.worker = get_le(payload, 1, 8);
  message.batch = get_le(payload, 9, 8);
  message.status = get_le(payload, 17, 8);
  return message;
}

void append_batch_frame(const workload::RoutedBatch& batch,
                        std::uint64_t proxy_mask, std::string& out) {
  const auto owned = [proxy_mask](std::uint8_t proxy) {
    return ((proxy_mask >> proxy) & 1) != 0;
  };
  const std::size_t frame = util::begin_frame(out);
  const std::size_t payload = out.size();
  out.append(4, '\0');  // CRC32, filled in below
  out += kBatchTag;
  put_varint(out, batch.index);
  put_varint(out, batch.shards.size());
  for (const workload::RoutedShard& shard : batch.shards) {
    std::uint64_t count = 0;
    for (const std::uint8_t proxy : shard.proxy_of) count += owned(proxy);
    put_varint(out, count);
  }

  StringTable table;
  std::int64_t previous_time = 0;
  for (const workload::RoutedShard& shard : batch.shards) {
    std::uint64_t next_sequence = 0;
    for (std::size_t k = 0; k < shard.requests.size(); ++k) {
      if (!owned(shard.proxy_of[k])) continue;
      const proxy::Request& request = shard.requests[k];
      const std::uint64_t sequence =
          shard.sequence.empty() ? k : shard.sequence[k];
      put_varint(out, sequence - next_sequence);
      next_sequence = sequence + 1;
      const auto unreachable =
          std::bit_cast<std::uint64_t>(request.dest_unreachable_prob);
      out += static_cast<char>(
          shard.proxy_of[k] |
          (static_cast<unsigned>(request.url.scheme) << 3) |
          (request.dest_ip ? 1u << 5 : 0u) |
          (request.cacheable ? 1u << 6 : 0u) |
          (unreachable != 0 ? 1u << 7 : 0u));
      put_varint(out, zigzag(static_cast<std::int64_t>(
                          static_cast<std::uint64_t>(request.time) -
                          static_cast<std::uint64_t>(previous_time))));
      previous_time = request.time;
      put_varint(out, request.user_id);
      table.put(out, request.user_agent);
      table.put(out, request.method);
      put_string(out, request.url.host);
      put_varint(out, request.url.port);
      put_string(out, request.url.path);
      put_string(out, request.url.query);
      put_string(out, request.inner_path);
      put_string(out, request.inner_query);
      if (request.dest_ip) put_le(out, request.dest_ip->value(), 4);
      if (unreachable != 0) put_le(out, unreachable, 8);
    }
  }

  if (out.size() - payload > kMaxBatchFrame) {
    const std::size_t size = out.size() - payload;
    out.resize(frame);
    throw std::length_error("shard: batch frame of " + std::to_string(size) +
                            " bytes exceeds the data channel's limit");
  }
  const std::uint32_t crc =
      util::crc32_of(std::string_view{out}.substr(payload + 4));
  for (int i = 0; i < 4; ++i)
    out[payload + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  util::finish_frame(out, frame);
}

void decode_batch_frame(std::string_view payload, std::uint64_t proxy_mask,
                        workload::RoutedBatch& batch) {
  if (payload.size() < 5) fail("truncated header");
  const std::string_view body = payload.substr(4);
  if (util::crc32_of(body) != get_le(payload, 0, 4))
    fail("checksum mismatch");
  Cursor in{body};
  if (in.u8() != static_cast<std::uint8_t>(kBatchTag))
    fail("unknown frame tag");
  const std::uint64_t index = in.varint();
  const std::uint64_t shards = in.varint();
  if (shards == 0 || shards > workload::SyriaScenario::kShardsPerBatch)
    fail("shard count " + std::to_string(shards) + " out of range");
  std::uint64_t counts[workload::SyriaScenario::kShardsPerBatch];
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < shards; ++i) {
    counts[i] = in.varint();
    // Checked one by one so the sum cannot wrap.
    const std::uint64_t limit = in.remaining() / kMinRequestBytes;
    if (total > limit || counts[i] > limit - total)
      fail("request count exceeds the payload");
    total += counts[i];
  }
  if (total > in.remaining() / kMinRequestBytes)
    fail("request count exceeds the payload");

  batch.index = static_cast<std::size_t>(index);
  batch.shards.resize(static_cast<std::size_t>(shards));
  batch.failovers = {};  // the coordinator's routing saw the diversions
  TableReader table;
  std::int64_t previous_time = 0;
  for (std::uint64_t i = 0; i < shards; ++i) {
    workload::RoutedShard& shard = batch.shards[i];
    const auto count = static_cast<std::size_t>(counts[i]);
    shard.requests.resize(count);
    shard.proxy_of.resize(count);
    shard.sequence.resize(count);
    std::uint64_t next_sequence = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t gap = in.varint();
      if (gap > kMaxSequence || next_sequence + gap > kMaxSequence)
        fail("sequence beyond 32 bits");
      const std::uint64_t sequence = next_sequence + gap;
      next_sequence = sequence + 1;
      shard.sequence[k] = static_cast<std::uint32_t>(sequence);

      const std::uint8_t flags = in.u8();
      const std::uint8_t proxy = flags & 7;
      if (((proxy_mask >> proxy) & 1) == 0)
        fail("request for proxy " + std::to_string(proxy) +
             " outside the worker's mask");
      const unsigned scheme = (flags >> 3) & 3;
      if (scheme > static_cast<unsigned>(net::Scheme::kTcp))
        fail("unknown scheme");
      shard.proxy_of[k] = proxy;

      proxy::Request& request = shard.requests[k];
      request.time = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(previous_time) +
          static_cast<std::uint64_t>(unzigzag(in.varint())));
      previous_time = request.time;
      request.user_id = in.varint();
      request.user_agent.assign(table.get(in));
      request.method.assign(table.get(in));
      request.url.scheme = static_cast<net::Scheme>(scheme);
      request.url.host.assign(in.string());
      const std::uint64_t port = in.varint();
      if (port > 0xFFFF) fail("port out of range");
      request.url.port = static_cast<std::uint16_t>(port);
      request.url.path.assign(in.string());
      request.url.query.assign(in.string());
      request.inner_path.assign(in.string());
      request.inner_query.assign(in.string());
      request.cacheable = (flags & (1u << 6)) != 0;
      if ((flags & (1u << 5)) != 0)
        request.dest_ip =
            net::Ipv4Addr{static_cast<std::uint32_t>(in.fixed(4))};
      else
        request.dest_ip.reset();
      std::uint64_t unreachable = 0;
      if ((flags & (1u << 7)) != 0) {
        unreachable = in.fixed(8);
        if (unreachable == 0) fail("zero unreachable probability flagged");
      }
      request.dest_unreachable_prob = std::bit_cast<double>(unreachable);
    }
  }
  if (in.remaining() != 0) fail("trailing bytes");
}

}  // namespace syrwatch::shard
