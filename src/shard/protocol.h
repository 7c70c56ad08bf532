#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace syrwatch::workload {
struct RoutedBatch;
}  // namespace syrwatch::workload

namespace syrwatch::shard {

/// The two channels between the coordinator and each worker, carried as
/// util frames (u32 LE length + payload) over a private pipe pair.
///
/// Status (worker→coordinator) is strictly advisory: the durable record of
/// a shard's progress is its checkpoint directory, and the coordinator
/// treats the pipe as a liveness/progress signal only — losing every
/// message (dead coordinator, full pipe) costs nothing but supervision
/// fidelity. Encoding is a fixed-width little-endian struct (type byte +
/// three u64), trivially versioned by frame length; HELLO carries the
/// protocol's shape implicitly since a mismatched build fails to decode it.
///
/// Data (coordinator→worker) carries the worker's input: one batch frame
/// per batch, in batch order, from the batch its HELLO names.

enum class MessageType : std::uint8_t {
  kHello = 1,      ///< First frame after fork: worker is alive, resumed or
                   ///< fresh (status = first batch it will execute, its
                   ///< manifest's next_batch).
  kBatchDone = 2,  ///< A durable commit landed (batch = newest committed,
                   ///< records = cumulative records this attempt).
  kHeartbeat = 3,  ///< A batch's bytes hit the spool (liveness tick).
  kShutdown = 4,   ///< Clean exit imminent (status = 0 completed,
                   ///< 1 interrupted by cancellation).
};

struct Message {
  MessageType type = MessageType::kHello;
  std::uint64_t worker = 0;
  std::uint64_t batch = 0;
  /// kBatchDone: cumulative records emitted; kHello/kShutdown: status.
  std::uint64_t status = 0;
};

/// Fixed 25-byte frame payload (1 + 3×8, little-endian).
std::string encode(const Message& message);

/// Inverse of encode; nullopt on a wrong-sized or unknown-type payload.
std::optional<Message> decode(std::string_view payload);

/// Largest batch frame the data channel carries. A worker's share of one
/// batch is about 65 bytes per request, so this is far above any scale a
/// single host runs.
inline constexpr std::size_t kMaxBatchFrame = std::size_t{1} << 30;

/// Appends to `out` the data frame (length prefix included) of `batch`
/// for the worker owning `proxy_mask`: every request routed to an owned
/// proxy, filtered-day ones included (they still warm the caches), each
/// with its generation sequence, so the worker's keyed sink writes the
/// same merge keys as a whole-farm run. Payload layout, little-endian:
///
///   u32     CRC32 of the rest of the payload
///   u8      'B'
///   varint  batch index, shard count n, then n request counts
///   per request, shard by shard:
///     varint  sequence (the first in a shard) or its gap to the previous
///             sequence minus one
///     u8      proxy (bits 0-2), scheme (3-4), dest_ip set (5),
///             cacheable (6), dest_unreachable_prob set (7)
///     varint  zigzag(time - previous request's time), user_id
///     varint  user_agent, then method: an index into the frame's string
///             table, or the table's size followed by a new entry
///     string  host; varint port; string path, query, inner_path,
///             inner_query (a string is a varint length + bytes)
///     [u32 dest_ip] [u64 bits of dest_unreachable_prob]
///
/// Throws std::length_error when the payload would exceed kMaxBatchFrame.
void append_batch_frame(const workload::RoutedBatch& batch,
                        std::uint64_t proxy_mask, std::string& out);

/// Decodes a batch frame payload (without its length prefix) into
/// `batch`, reusing its storage. Accepts exactly the payloads
/// append_batch_frame writes: throws util::FrameError on a bad checksum,
/// a truncated or over-long payload, a count the payload cannot hold, a
/// non-minimal varint, a duplicate string-table entry, or a request for a
/// proxy outside `proxy_mask`.
void decode_batch_frame(std::string_view payload, std::uint64_t proxy_mask,
                        workload::RoutedBatch& batch);

}  // namespace syrwatch::shard
