#include "durable/manifest.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/checksum.h"
#include "util/json.h"

namespace syrwatch::durable {

ManifestArtifact* RunManifest::find_artifact(std::string_view path) {
  for (ManifestArtifact& artifact : artifacts)
    if (artifact.path == path) return &artifact;
  return nullptr;
}

const ManifestArtifact* RunManifest::find_artifact(
    std::string_view path) const {
  for (const ManifestArtifact& artifact : artifacts)
    if (artifact.path == path) return &artifact;
  return nullptr;
}

void RunManifest::upsert_artifact(ManifestArtifact artifact) {
  if (ManifestArtifact* existing = find_artifact(artifact.path)) {
    *existing = std::move(artifact);
    return;
  }
  artifacts.push_back(std::move(artifact));
}

std::string RunManifest::to_json() const {
  util::json::Writer out{util::json::Writer::Layout::kPretty, 9};
  out.begin_object();
  out.key("schema").value(kSchema);
  out.key("state").value(state);
  out.key("command").value(command);
  out.key("seed").value(seed);
  out.key("total_requests").value(total_requests);
  out.key("fault_profile").value(fault_profile);
  out.key("apply_leak_filter").value(apply_leak_filter);
  out.key("threads").value(threads);
  out.key("config_fingerprint").value(config_fingerprint);
  out.key("next_batch").value(next_batch);
  out.key("total_batches").value(total_batches);
  // Optional sharding fields: emitted only when set, so a single-process
  // manifest's JSON is byte-identical to what pre-shard builds wrote.
  if (workers != 0) out.key("workers").value(workers);
  if (!degraded_shards.empty()) {
    out.key("degraded_shards").begin_array(util::json::Writer::Wrap::kInline);
    for (const std::string& shard : degraded_shards) out.value(shard);
    out.end_array();
  }
  out.key("artifacts").begin_array();
  for (const ManifestArtifact& artifact : artifacts) {
    out.begin_object();
    out.key("path").value(artifact.path);
    out.key("role").value(artifact.role);
    out.key("bytes").value(artifact.bytes);
    out.key("crc32").value(util::to_hex32(artifact.crc32));
    out.key("batch").value(artifact.batch);
    out.end_object();
  }
  out.end_array();
  out.end_object();
  return out.finish();
}

RunManifest RunManifest::parse(std::string_view text) {
  using util::json::Error;
  using util::json::Value;
  const Value root = util::json::parse(text);
  if (root.kind != Value::Kind::kObject)
    throw Error("manifest: document is not a JSON object", root.offset);
  const std::string& schema = root.string_at("schema");
  if (schema != kSchema)
    throw Error("manifest: unsupported schema \"" + schema + "\" (expected " +
                    std::string(kSchema) + ")",
                root.at("schema").offset);

  RunManifest manifest;
  manifest.state = root.string_at("state");
  if (manifest.state != "in_progress" && manifest.state != "interrupted" &&
      manifest.state != "complete")
    throw Error("manifest: unknown state \"" + manifest.state + "\"",
                root.at("state").offset);
  manifest.command = root.string_at("command");
  manifest.seed = root.u64_at("seed");
  manifest.total_requests = root.u64_at("total_requests");
  manifest.fault_profile = root.string_at("fault_profile");
  manifest.apply_leak_filter = root.bool_at("apply_leak_filter");
  manifest.threads = root.u64_at("threads");
  manifest.config_fingerprint = root.string_at("config_fingerprint");
  manifest.next_batch = root.u64_at("next_batch");
  manifest.total_batches = root.u64_at("total_batches");
  if (root.find("workers") != nullptr)
    manifest.workers = root.u64_at("workers");
  if (const Value* shards = root.find("degraded_shards")) {
    if (shards->kind != Value::Kind::kArray)
      throw Error("manifest: \"degraded_shards\" is not an array",
                  shards->offset);
    for (const Value& entry : shards->array) {
      if (entry.kind != Value::Kind::kString)
        throw Error("manifest: \"degraded_shards\" entry is not a string",
                    entry.offset);
      manifest.degraded_shards.push_back(entry.string);
    }
  }

  const Value& artifacts = root.at("artifacts");
  if (artifacts.kind != Value::Kind::kArray)
    throw Error("manifest: \"artifacts\" is not an array", artifacts.offset);
  for (const Value& entry : artifacts.array) {
    if (entry.kind != Value::Kind::kObject)
      throw Error("manifest: artifact entry is not an object", entry.offset);
    ManifestArtifact artifact;
    artifact.path = entry.string_at("path");
    artifact.role = entry.string_at("role");
    artifact.bytes = entry.u64_at("bytes");
    const std::string& crc = entry.string_at("crc32");
    if (!util::parse_hex32(crc, artifact.crc32))
      throw Error("manifest: artifact \"" + artifact.path +
                      "\" has malformed crc32 \"" + crc + "\"",
                  entry.at("crc32").offset);
    artifact.batch = entry.i64_at("batch");
    manifest.artifacts.push_back(std::move(artifact));
  }
  return manifest;
}

RunManifest RunManifest::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in)
    throw std::runtime_error("manifest: cannot open " + path);
  // Refuse an oversized file before reading it: a manifest is about
  // 600 bytes, and the parser would refuse it anyway.
  const std::streamoff size = in.tellg();
  if (size < 0)
    throw std::runtime_error("manifest: read error on " + path);
  if (static_cast<std::uint64_t>(size) > util::json::kMaxBytes)
    throw util::json::Error(path + ": " + std::to_string(size) +
                                " bytes is over the " +
                                std::to_string(util::json::kMaxBytes) +
                                "-byte manifest limit",
                            util::json::kMaxBytes);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size))
    throw std::runtime_error("manifest: read error on " + path);
  try {
    return parse(text);
  } catch (const util::json::Error& error) {
    throw util::json::Error(path + ": " + error.what(), error.offset());
  }
}

void RunManifest::save(const std::string& path, util::Vfs* vfs) const {
  util::atomic_write_file(path, to_json(), vfs);
}

std::string_view ArtifactCheck::status() const noexcept {
  if (!exists) return "MISSING";
  if (!bytes_match) return "SIZE MISMATCH";
  if (!crc_match) return "CRC MISMATCH";
  return "ok";
}

bool VerifyReport::ok() const noexcept {
  for (const ArtifactCheck& check : checks)
    if (!check.ok()) return false;
  return true;
}

VerifyReport verify_artifacts(const RunManifest& manifest,
                              const std::string& base_dir) {
  VerifyReport report;
  for (const ManifestArtifact& artifact : manifest.artifacts) {
    ArtifactCheck check;
    check.expected = artifact;
    const std::filesystem::path listed{artifact.path};
    std::vector<std::string> candidates;
    if (listed.is_absolute()) {
      candidates.push_back(artifact.path);
    } else {
      candidates.push_back((std::filesystem::path{base_dir} / listed)
                               .string());
      candidates.push_back(artifact.path);  // as given (operator's cwd)
    }
    for (const std::string& candidate : candidates) {
      std::error_code ec;
      if (!std::filesystem::exists(candidate, ec) || ec) continue;
      check.resolved_path = candidate;
      check.exists = true;
      break;
    }
    if (!check.exists) {
      check.resolved_path = candidates.front();
      report.checks.push_back(std::move(check));
      continue;
    }
    if (artifact.role == "spool" || artifact.role == "keys") {
      // The spool's (and its merge-key sidecar's) digest describes the
      // committed prefix; a crashed append may have left a longer file
      // (resume truncates the tail), which still verifies.
      const util::FileDigest digest =
          util::crc32_file_prefix(check.resolved_path, artifact.bytes);
      check.actual = util::ArtifactInfo{digest.bytes, digest.crc32};
      check.bytes_match = digest.bytes == artifact.bytes;
      check.crc_match = digest.crc32 == artifact.crc32;
    } else {
      const util::FileDigest digest = util::crc32_file(check.resolved_path);
      check.actual = util::ArtifactInfo{digest.bytes, digest.crc32};
      check.bytes_match = digest.bytes == artifact.bytes;
      check.crc_match = digest.crc32 == artifact.crc32;
    }
    report.checks.push_back(std::move(check));
  }
  return report;
}

}  // namespace syrwatch::durable
