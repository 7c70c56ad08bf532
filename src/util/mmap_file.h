#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace syrwatch::util {

/// Read-only memory mapping of a whole file. The columnar log reader hands
/// out string_views directly into the mapping, so the mapping must outlive
/// every view — MappedFile is move-only and unmaps in its destructor.
///
/// An empty file maps to an empty view (no kernel mapping is created).
class MappedFile {
 public:
  /// Maps `path` read-only; throws std::runtime_error (naming the path)
  /// when the file cannot be opened, stat'ed, or mapped.
  static MappedFile open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view bytes() const noexcept {
    return {static_cast<const char*>(data_), size_};
  }
  std::size_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

  /// Drops the whole pages inside [offset, offset + size) from the
  /// process's resident set. The bytes stay readable: a later read faults
  /// them back in from the page cache.
  void release(std::size_t offset, std::size_t size) const noexcept;

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace syrwatch::util
