#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace syrwatch::util {

namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw std::runtime_error("mmap " + path + ": " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

MappedFile MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "fstat");
  }
  MappedFile file;
  file.path_ = path;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    void* data = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail(path, "mmap");
    }
    file.data_ = data;
  }
  // The mapping holds its own reference; the descriptor is no longer
  // needed.
  ::close(fd);
  return file;
}

void MappedFile::release(std::size_t offset,
                         std::size_t size) const noexcept {
  if (offset > size_ || size > size_ - offset) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t begin = (offset + page - 1) / page * page;
  const std::size_t end = (offset + size) / page * page;
  // Read-only and never written, so nothing is lost: a hint, not a free.
  if (begin < end)
    (void)::madvise(static_cast<char*>(data_) + begin, end - begin,
                    MADV_DONTNEED);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

}  // namespace syrwatch::util
