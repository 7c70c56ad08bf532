#include "util/checksum.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace syrwatch::util {

namespace {

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320. Table 0 is
/// the classic bytewise table; table k advances a byte's contribution by k
/// more zero bytes, so eight table lookups fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void Crc32::update(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kCrcTables;
  std::uint32_t crc = state_;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ crc;
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size)
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  state_ = crc;
}

void Crc32::update(std::string_view bytes) noexcept {
  update(bytes.data(), bytes.size());
}

std::uint32_t crc32_of(std::string_view bytes) noexcept {
  Crc32 crc;
  crc.update(bytes);
  return crc.value();
}

FileDigest crc32_file(const std::string& path) {
  return crc32_file_prefix(path, UINT64_MAX);
}

FileDigest crc32_file_prefix(const std::string& path, std::uint64_t limit) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("crc32_file: cannot open " + path);
  FileDigest digest;
  Crc32 crc;
  char buffer[1 << 16];
  while (in && digest.bytes < limit) {
    const std::uint64_t want =
        std::min<std::uint64_t>(sizeof buffer, limit - digest.bytes);
    in.read(buffer, static_cast<std::streamsize>(want));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    crc.update(buffer, static_cast<std::size_t>(got));
    digest.bytes += static_cast<std::uint64_t>(got);
  }
  if (in.bad()) throw std::runtime_error("crc32_file: read error on " + path);
  digest.crc32 = crc.value();
  return digest;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string to_hex32(std::uint32_t value) {
  char buffer[12];
  std::snprintf(buffer, sizeof buffer, "%08x", value);
  return buffer;
}

std::string to_hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool parse_hex32(std::string_view text, std::uint32_t& value) noexcept {
  if (text.size() != 8) return false;
  std::uint32_t out = 0;
  for (const char c : text) {
    const int digit = hex_digit(c);
    if (digit < 0) return false;
    out = (out << 4) | static_cast<std::uint32_t>(digit);
  }
  value = out;
  return true;
}

bool parse_hex64(std::string_view text, std::uint64_t& value) noexcept {
  if (text.size() != 16) return false;
  std::uint64_t out = 0;
  for (const char c : text) {
    const int digit = hex_digit(c);
    if (digit < 0) return false;
    out = (out << 4) | static_cast<std::uint64_t>(digit);
  }
  value = out;
  return true;
}

}  // namespace syrwatch::util
