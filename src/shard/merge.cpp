#include "shard/merge.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "durable/manifest.h"
#include "util/checksum.h"

namespace syrwatch::shard {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kSpoolFile = "log_spool.csv";
constexpr std::string_view kKeysFile = "merge_keys.bin";

/// One shard's read position in the merge. Strict shards stream straight
/// off their CRC-verified committed prefix; lenient shards (degraded, no
/// usable manifest) were recovered up front into memory.
struct Cursor {
  ShardContribution contribution;
  // Strict streaming state.
  std::ifstream spool;
  std::ifstream keys;
  std::uint64_t spool_limit = 0;
  std::uint64_t spool_consumed = 0;
  std::uint64_t remaining = 0;
  // Lenient state.
  std::vector<std::string> lines;
  std::vector<std::uint64_t> lenient_keys;
  std::size_t pos = 0;
  // Current head record.
  bool has_head = false;
  std::uint64_t key = 0;
  std::string line;
};

std::uint64_t decode_key(const char* bytes) {
  std::uint64_t key = 0;
  for (int i = 0; i < 8; ++i)
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
           << (8 * i);
  return key;
}

[[noreturn]] void fail(const std::string& shard, const std::string& why) {
  throw std::runtime_error("shard merge: " + shard + ": " + why);
}

/// Advances a cursor to its next record; clears has_head at exhaustion.
void advance(Cursor& cursor) {
  if (cursor.contribution.lenient) {
    if (cursor.pos >= cursor.lines.size()) {
      cursor.has_head = false;
      return;
    }
    cursor.key = cursor.lenient_keys[cursor.pos];
    cursor.line = std::move(cursor.lines[cursor.pos]);
    ++cursor.pos;
    cursor.has_head = true;
    return;
  }
  if (cursor.remaining == 0) {
    cursor.has_head = false;
    return;
  }
  if (!std::getline(cursor.spool, cursor.line))
    fail(cursor.contribution.name,
         "spool ended before its merge-key sidecar");
  cursor.spool_consumed += cursor.line.size() + 1;
  if (cursor.spool_consumed > cursor.spool_limit)
    fail(cursor.contribution.name,
         "committed spool prefix does not end on a record boundary");
  char key_bytes[8];
  if (!cursor.keys.read(key_bytes, 8))
    fail(cursor.contribution.name,
         "merge-key sidecar ended before its record count");
  cursor.key = decode_key(key_bytes);
  --cursor.remaining;
  cursor.has_head = true;
}

/// Opens a shard via its manifest's CRC-verified committed prefixes.
/// Returns false (with `why`) when the manifest route is unusable.
bool try_open_strict(Cursor& cursor, const ShardInput& input,
                     std::string& why) {
  const fs::path dir{input.directory};
  const std::string manifest_path =
      (dir / durable::RunManifest::kFileName).string();
  std::error_code ec;
  if (!fs::exists(manifest_path, ec) || ec) {
    why = "no manifest";
    return false;
  }
  durable::RunManifest manifest;
  try {
    manifest = durable::RunManifest::load(manifest_path);
  } catch (const std::runtime_error& error) {
    why = error.what();
    return false;
  }
  const durable::ManifestArtifact* spool =
      manifest.find_artifact(kSpoolFile);
  const durable::ManifestArtifact* keys = manifest.find_artifact(kKeysFile);
  if (spool == nullptr || keys == nullptr) {
    why = "manifest lists no spool/keys pair";
    return false;
  }
  if (keys->bytes % 8 != 0) {
    why = "merge-key sidecar committed size is not a multiple of 8";
    return false;
  }
  const std::string spool_path = (dir / kSpoolFile).string();
  const std::string keys_path = (dir / kKeysFile).string();
  const util::FileDigest spool_digest =
      util::crc32_file_prefix(spool_path, spool->bytes);
  if (spool_digest.bytes != spool->bytes ||
      spool_digest.crc32 != spool->crc32) {
    why = "spool committed prefix failed verification";
    return false;
  }
  const util::FileDigest keys_digest =
      util::crc32_file_prefix(keys_path, keys->bytes);
  if (keys_digest.bytes != keys->bytes ||
      keys_digest.crc32 != keys->crc32) {
    why = "merge-key sidecar committed prefix failed verification";
    return false;
  }

  cursor.spool.open(spool_path, std::ios::binary);
  cursor.keys.open(keys_path, std::ios::binary);
  if (!cursor.spool || !cursor.keys) {
    why = "cannot open spool/keys";
    return false;
  }
  std::string header;
  if (!std::getline(cursor.spool, header) ||
      header != proxy::log_csv_header()) {
    why = "spool header missing or foreign";
    return false;
  }
  cursor.spool_consumed = header.size() + 1;
  cursor.spool_limit = spool->bytes;
  cursor.remaining = keys->bytes / 8;
  cursor.contribution.committed_batches = manifest.next_batch;

  // Synthesized clean stats: a verified prefix has no damage by
  // construction.
  proxy::LogReadStats& stats = cursor.contribution.read_stats;
  stats.lines = cursor.remaining + 1;
  stats.data_lines = cursor.remaining;
  stats.recovered = cursor.remaining;
  stats.header_present = true;
  return true;
}

/// Best-effort recovery without a manifest: lenient-read the whole spool,
/// pair records positionally with whatever whole keys exist. Valid under
/// crash damage, which is append-only — skips and truncation are
/// tail-only, so the pairing never shifts mid-file.
void open_lenient(Cursor& cursor, const ShardInput& input) {
  cursor.contribution.lenient = true;
  const fs::path dir{input.directory};
  std::ifstream spool{(dir / kSpoolFile).string(), std::ios::binary};
  if (!spool) return;  // shard died before creating its spool: nothing
  // Recovered records are re-serialized canonically, one line each.
  cursor.contribution.read_stats = proxy::scan_log_lenient(
      spool, [&](const proxy::LogRecordView& record) {
        std::string& line = cursor.lines.emplace_back();
        proxy::append_csv(record, line);
        line.pop_back();  // cursor lines carry no '\n'
      });

  std::ifstream keys{(dir / kKeysFile).string(), std::ios::binary};
  std::string key_bytes;
  if (keys) {
    std::ostringstream buffer;
    buffer << keys.rdbuf();
    key_bytes = std::move(buffer).str();
  }
  const std::size_t usable =
      std::min(cursor.lines.size(), key_bytes.size() / 8);
  cursor.lines.resize(usable);
  cursor.lenient_keys.reserve(usable);
  for (std::size_t i = 0; i < usable; ++i)
    cursor.lenient_keys.push_back(decode_key(key_bytes.data() + i * 8));
}

}  // namespace

void fold_read_stats(proxy::LogReadStats& total,
                     const proxy::LogReadStats& stats) {
  total.lines += stats.lines;
  total.data_lines += stats.data_lines;
  total.recovered += stats.recovered;
  total.empty_lines += stats.empty_lines;
  total.header_present = total.header_present && stats.header_present;
  total.truncated_tail = total.truncated_tail || stats.truncated_tail;
  for (std::size_t i = 0; i < proxy::kParseErrorCount; ++i) {
    total.skipped[i] += stats.skipped[i];
    if (stats.first_error_line[i] != 0 &&
        (total.first_error_line[i] == 0 ||
         stats.first_error_line[i] < total.first_error_line[i]))
      total.first_error_line[i] = stats.first_error_line[i];
  }
}

MergeResult merge_shards(const std::vector<ShardInput>& shards,
                         const std::string& out_path, util::Vfs* vfs) {
  MergeResult result;
  result.combined.header_present = true;

  std::vector<Cursor> cursors(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    Cursor& cursor = cursors[i];
    cursor.contribution.name = shards[i].name;
    cursor.contribution.proxy_mask = shards[i].proxy_mask;
    cursor.contribution.degraded = shards[i].degraded;
    std::string why;
    if (!try_open_strict(cursor, shards[i], why)) {
      if (!shards[i].degraded)
        fail(shards[i].name, why + " — a surviving shard must verify");
      open_lenient(cursor, shards[i]);
    }
    advance(cursor);
  }

  util::AtomicFileWriter writer{out_path, vfs};
  std::string header{proxy::log_csv_header()};
  header += '\n';
  writer.write(header);

  for (;;) {
    Cursor* best = nullptr;
    for (Cursor& cursor : cursors) {
      if (!cursor.has_head) continue;
      if (best == nullptr || cursor.key < best->key) best = &cursor;
    }
    if (best == nullptr) break;
    writer.write(best->line);
    writer.write("\n");
    ++best->contribution.records;
    ++result.records;
    advance(*best);
  }
  result.output = writer.commit();

  for (Cursor& cursor : cursors) {
    fold_read_stats(result.combined, cursor.contribution.read_stats);
    result.shards.push_back(std::move(cursor.contribution));
  }
  return result;
}

}  // namespace syrwatch::shard
