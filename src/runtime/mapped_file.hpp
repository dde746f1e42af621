#pragma once
// runtime::MappedFile: RAII read-only memory mapping of a whole file.
//
// This is the storage substrate of the one snapshot loader (DESIGN.md
// section 5): `graph::load_binary_mmap` (and `graph::load_any`) parses the
// v3 snapshot header out of the mapping and hands `CsrGraph` spans
// straight into it — no heap materialization, no copy. The mapping is
// MAP_PRIVATE + PROT_READ, so W ranks on one host mapping the same
// snapshot share one physical copy of the page cache, and "loading" a
// hot snapshot is a handful of page faults instead of an O(bytes) read.
//
// The wrapper also records the file's identity (device, inode, size,
// mtime) so the verify-once checksum cache can recognize "same file,
// already verified" across repeated loads of one path.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pregel::runtime {

class MappedFile {
 public:
  MappedFile() = default;

  /// Open `path` read-only and map the whole file. Throws
  /// std::runtime_error with the failing path and errno text on any
  /// failure (missing file, directory, empty file — mmap(2) cannot map
  /// zero bytes, and a zero-byte "snapshot" is never valid anyway).
  explicit MappedFile(const std::string& path)
      : MappedFile(open_fd(path), path) {}

  /// Adopt an already-open descriptor (the single-open `load_any` sniff
  /// path) and map the whole file; the descriptor is closed once the
  /// mapping exists — the mapping keeps the pages alive on its own.
  MappedFile(int fd, std::string path) : path_(std::move(path)) {
    if (fd < 0) {
      throw std::runtime_error("MappedFile: bad descriptor for " + path_);
    }
    struct ::stat st {};
    if (::fstat(fd, &st) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("MappedFile: cannot stat " + path_ + ": " +
                               err);
    }
    if (!S_ISREG(st.st_mode)) {
      ::close(fd);
      throw std::runtime_error("MappedFile: " + path_ +
                               " is not a regular file");
    }
    if (st.st_size == 0) {
      ::close(fd);
      throw std::runtime_error("MappedFile: " + path_ +
                               " is empty (nothing to map)");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("MappedFile: mmap of " + path_ + " failed: " +
                               err);
    }
    ::close(fd);
    data_ = static_cast<const std::byte*>(p);
    // Advise sequential readahead: snapshot consumers scan the arrays
    // front to back, so the kernel prefetching ahead of the fault stream
    // turns the cold-load page faults into streaming reads. Advisory
    // only — failure is ignored.
    ::madvise(p, size_, MADV_SEQUENTIAL);
    device_ = static_cast<std::uint64_t>(st.st_dev);
    inode_ = static_cast<std::uint64_t>(st.st_ino);
    mtime_ns_ = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
                st.st_mtim.tv_nsec;
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { swap(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      reset();
      swap(other);
    }
    return *this;
  }
  ~MappedFile() { reset(); }

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool is_mapped() const noexcept { return data_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  // File identity at map time — the verify-once cache key.
  [[nodiscard]] std::uint64_t device() const noexcept { return device_; }
  [[nodiscard]] std::uint64_t inode() const noexcept { return inode_; }
  [[nodiscard]] std::int64_t mtime_ns() const noexcept { return mtime_ns_; }

 private:
  static int open_fd(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      throw std::runtime_error("MappedFile: cannot open " + path + ": " +
                               std::strerror(errno));
    }
    return fd;
  }

  void reset() noexcept {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::byte*>(data_), size_);
      data_ = nullptr;
      size_ = 0;
    }
  }

  void swap(MappedFile& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(path_, other.path_);
    std::swap(device_, other.device_);
    std::swap(inode_, other.inode_);
    std::swap(mtime_ns_, other.mtime_ns_);
  }

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
  std::uint64_t device_ = 0;
  std::uint64_t inode_ = 0;
  std::int64_t mtime_ns_ = 0;
};

}  // namespace pregel::runtime
