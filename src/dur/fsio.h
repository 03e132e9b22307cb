// Small POSIX file-IO helpers shared by the durability engine: durable
// directory creation, whole-file reads, positioned reads, atomic (tmp +
// rename + dir-fsync) writes, and directory syncs. Everything returns
// Status and never throws.

#ifndef SUPA_DUR_FSIO_H_
#define SUPA_DUR_FSIO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace supa::dur {

/// An owned file descriptor, closed when it goes out of scope.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { Close(); }

  int get() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
};

/// IOError "<op> <path>: <strerror(errno)>".
Status ErrnoStatus(const char* op, const std::string& path);

/// Opens `path` read-only and stores its size in `*size`. NotFound if
/// absent.
Result<ScopedFd> OpenForRead(const std::string& path, uint64_t* size);

/// Reads exactly `size` bytes at `offset` with pread (no mapping, so a
/// file that shrinks is an IOError, not a SIGBUS).
Status ReadAt(int fd, void* dst, size_t size, uint64_t offset,
              const std::string& path);

/// Writes all `size` bytes at the file position, retrying short writes.
Status WriteAll(int fd, const void* data, size_t size,
                const std::string& path);

/// Creates `dir` (and parents) if missing.
Status EnsureDir(const std::string& dir);

/// fsync on the directory itself so renames/creates within it are durable.
Status SyncDir(const std::string& dir);

/// Reads the whole file into `out` (replaced). NotFound if absent.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// Writes `path` atomically: write `path`.tmp, fsync, rename over `path`,
/// fsync the parent directory. Readers see either the old or the new
/// content, never a torn mix.
Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t size);

/// Removes a file if it exists (missing is not an error).
Status RemoveFileIfExists(const std::string& path);

}  // namespace supa::dur

#endif  // SUPA_DUR_FSIO_H_
