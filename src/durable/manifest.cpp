#include "durable/manifest.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "util/checksum.h"

namespace syrwatch::durable {

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string u64_text(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the documents this module writes
// (objects, arrays, strings, integers, booleans, null). Strict on schema
// errors, no external dependencies.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  // Numbers we emit are integers: kept as sign + 64-bit magnitude, so
  // every uint64_t (e.g. a seed >= 2^63) round-trips.
  std::uint64_t magnitude = 0;
  bool negative = false;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (cursor_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("manifest json: " + message + " (offset " +
                             std::to_string(cursor_) + ")");
  }

  void skip_ws() {
    while (cursor_ < text_.size() &&
           (text_[cursor_] == ' ' || text_[cursor_] == '\t' ||
            text_[cursor_] == '\n' || text_[cursor_] == '\r'))
      ++cursor_;
  }

  char peek() {
    if (cursor_ >= text_.size()) fail("unexpected end of document");
    return text_[cursor_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    ++cursor_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(cursor_, literal.size()) != literal) return false;
    cursor_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue value;
      value.kind = JsonValue::Kind::kString;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (consume_literal("null")) return JsonValue{};
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (cursor_ >= text_.size()) fail("unterminated string");
      const char c = text_[cursor_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (cursor_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[cursor_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (cursor_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char digit = text_[cursor_++];
            code <<= 4;
            if (digit >= '0' && digit <= '9')
              code |= static_cast<unsigned>(digit - '0');
            else if (digit >= 'a' && digit <= 'f')
              code |= static_cast<unsigned>(digit - 'a' + 10);
            else if (digit >= 'A' && digit <= 'F')
              code |= static_cast<unsigned>(digit - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // We only ever emit \u for ASCII control characters; decode
          // those exactly and substitute anything wider.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = cursor_;
    if (peek() == '-') ++cursor_;
    while (cursor_ < text_.size() &&
           ((text_[cursor_] >= '0' && text_[cursor_] <= '9') ||
            text_[cursor_] == '.' || text_[cursor_] == 'e' ||
            text_[cursor_] == 'E' || text_[cursor_] == '+' ||
            text_[cursor_] == '-'))
      ++cursor_;
    const std::string token{text_.substr(start, cursor_ - start)};
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    const char* first = token.data() + (token.front() == '-' ? 1 : 0);
    const char* last = token.data() + token.size();
    const auto [end, error] = std::from_chars(first, last, value.magnitude);
    if (error == std::errc::result_out_of_range)
      fail("number out of range " + token);
    if (error != std::errc{}) fail("bad number " + token);
    if (end != last) fail("non-integer number " + token);
    value.negative = token.front() == '-' && value.magnitude != 0;
    return value;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++cursor_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++cursor_;
      if (c == ']') return value;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++cursor_;
      return value;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++cursor_;
      if (c == '}') return value;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t cursor_ = 0;
};

// Typed field access with schema-error messages naming the field.

const JsonValue& field(const JsonValue& object, const std::string& name) {
  const auto it = object.object.find(name);
  if (it == object.object.end())
    throw std::runtime_error("manifest: missing field \"" + name + "\"");
  return it->second;
}

std::string get_string(const JsonValue& object, const std::string& name) {
  const JsonValue& value = field(object, name);
  if (value.kind != JsonValue::Kind::kString)
    throw std::runtime_error("manifest: field \"" + name +
                             "\" is not a string");
  return value.string;
}

std::uint64_t get_u64(const JsonValue& object, const std::string& name) {
  const JsonValue& value = field(object, name);
  if (value.kind != JsonValue::Kind::kNumber || value.negative)
    throw std::runtime_error("manifest: field \"" + name +
                             "\" is not a non-negative integer");
  return value.magnitude;
}

std::int64_t get_i64(const JsonValue& object, const std::string& name) {
  const JsonValue& value = field(object, name);
  if (value.kind != JsonValue::Kind::kNumber)
    throw std::runtime_error("manifest: field \"" + name +
                             "\" is not an integer");
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (value.magnitude > kMax + (value.negative ? 1 : 0))
    throw std::runtime_error("manifest: field \"" + name +
                             "\" is out of range");
  return value.negative ? static_cast<std::int64_t>(0 - value.magnitude)
                        : static_cast<std::int64_t>(value.magnitude);
}

bool get_bool(const JsonValue& object, const std::string& name) {
  const JsonValue& value = field(object, name);
  if (value.kind != JsonValue::Kind::kBool)
    throw std::runtime_error("manifest: field \"" + name +
                             "\" is not a boolean");
  return value.boolean;
}

}  // namespace

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
  std::string out = "{\n";
  out += "  \"schema\": \"" + std::string(kSchema) + "\",\n";
  out += "  \"state\": \"" + json_escape(state) + "\",\n";
  out += "  \"command\": \"" + json_escape(command) + "\",\n";
  out += "  \"seed\": " + u64_text(seed) + ",\n";
  out += "  \"total_requests\": " + u64_text(total_requests) + ",\n";
  out += "  \"fault_profile\": \"" + json_escape(fault_profile) + "\",\n";
  out += std::string("  \"apply_leak_filter\": ") +
         (apply_leak_filter ? "true" : "false") + ",\n";
  out += "  \"threads\": " + u64_text(threads) + ",\n";
  out += "  \"config_fingerprint\": \"" + json_escape(config_fingerprint) +
         "\",\n";
  out += "  \"next_batch\": " + u64_text(next_batch) + ",\n";
  out += "  \"total_batches\": " + u64_text(total_batches) + ",\n";
  // Optional sharding fields: emitted only when set, so a single-process
  // manifest's JSON is byte-identical to what pre-shard builds wrote.
  if (workers != 0) out += "  \"workers\": " + u64_text(workers) + ",\n";
  if (!degraded_shards.empty()) {
    out += "  \"degraded_shards\": [";
    for (std::size_t i = 0; i < degraded_shards.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + json_escape(degraded_shards[i]) + "\"";
    }
    out += "],\n";
  }
  out += "  \"artifacts\": [";
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    const ManifestArtifact& artifact = artifacts[i];
    if (i != 0) out += ',';
    out += "\n    {\"path\": \"" + json_escape(artifact.path) +
           "\", \"role\": \"" + json_escape(artifact.role) +
           "\", \"bytes\": " + u64_text(artifact.bytes) +
           ", \"crc32\": \"" + util::to_hex32(artifact.crc32) +
           "\", \"batch\": " + std::to_string(artifact.batch) + "}";
  }
  out += artifacts.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

RunManifest RunManifest::parse(std::string_view json) {
  const JsonValue root = JsonParser{json}.parse();
  if (root.kind != JsonValue::Kind::kObject)
    throw std::runtime_error("manifest: document is not a JSON object");
  const std::string schema = get_string(root, "schema");
  if (schema != kSchema)
    throw std::runtime_error("manifest: unsupported schema \"" + schema +
                             "\" (expected " + std::string(kSchema) + ")");

  RunManifest manifest;
  manifest.state = get_string(root, "state");
  if (manifest.state != "in_progress" && manifest.state != "interrupted" &&
      manifest.state != "complete")
    throw std::runtime_error("manifest: unknown state \"" + manifest.state +
                             "\"");
  manifest.command = get_string(root, "command");
  manifest.seed = get_u64(root, "seed");
  manifest.total_requests = get_u64(root, "total_requests");
  manifest.fault_profile = get_string(root, "fault_profile");
  manifest.apply_leak_filter = get_bool(root, "apply_leak_filter");
  manifest.threads = get_u64(root, "threads");
  manifest.config_fingerprint = get_string(root, "config_fingerprint");
  manifest.next_batch = get_u64(root, "next_batch");
  manifest.total_batches = get_u64(root, "total_batches");
  if (root.object.count("workers")) manifest.workers = get_u64(root, "workers");
  if (const auto it = root.object.find("degraded_shards");
      it != root.object.end()) {
    if (it->second.kind != JsonValue::Kind::kArray)
      throw std::runtime_error("manifest: \"degraded_shards\" is not an array");
    for (const JsonValue& entry : it->second.array) {
      if (entry.kind != JsonValue::Kind::kString)
        throw std::runtime_error(
            "manifest: \"degraded_shards\" entry is not a string");
      manifest.degraded_shards.push_back(entry.string);
    }
  }

  const JsonValue& artifacts = field(root, "artifacts");
  if (artifacts.kind != JsonValue::Kind::kArray)
    throw std::runtime_error("manifest: \"artifacts\" is not an array");
  for (const JsonValue& entry : artifacts.array) {
    if (entry.kind != JsonValue::Kind::kObject)
      throw std::runtime_error("manifest: artifact entry is not an object");
    ManifestArtifact artifact;
    artifact.path = get_string(entry, "path");
    artifact.role = get_string(entry, "role");
    artifact.bytes = get_u64(entry, "bytes");
    const std::string crc = get_string(entry, "crc32");
    if (!util::parse_hex32(crc, artifact.crc32))
      throw std::runtime_error("manifest: artifact \"" + artifact.path +
                               "\" has malformed crc32 \"" + crc + "\"");
    artifact.batch = get_i64(entry, "batch");
    manifest.artifacts.push_back(std::move(artifact));
  }
  return manifest;
}

RunManifest RunManifest::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in)
    throw std::runtime_error("manifest: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    throw std::runtime_error("manifest: read error on " + path);
  try {
    return parse(buffer.str());
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
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
