#include "dur/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace supa::dur {
void ScopedFd::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " " + path + ": " +
                         std::strerror(errno));
}

Result<ScopedFd> OpenForRead(const std::string& path, uint64_t* size) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) return ErrnoStatus("fstat", path);
  *size = static_cast<uint64_t>(st.st_size);
  return fd;
}

Status ReadAt(int fd, void* dst, size_t size, uint64_t offset,
              const std::string& path) {
  uint8_t* p = static_cast<uint8_t*>(dst);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, p + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path);
    }
    if (n == 0) return Status::IOError("file truncated mid-read: " + path);
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteAll(int fd, const void* data, size_t size,
                const std::string& path) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("create_directories " + dir + ": " + ec.message());
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open(dir)", dir);
  Status st = Status::OK();
  if (::fsync(fd) != 0) st = ErrnoStatus("fsync(dir)", dir);
  ::close(fd);
  return st;
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  uint64_t size = 0;
  SUPA_ASSIGN_OR_RETURN(const ScopedFd fd, OpenForRead(path, &size));
  out->resize(static_cast<size_t>(size));
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n =
        ::read(fd.get(), out->data() + done, out->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path);
    }
    if (n == 0) break;  // shrank under us; keep what we got
    done += static_cast<size_t>(n);
  }
  out->resize(done);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t size) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  Status st = WriteAll(fd, data, size, tmp);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", tmp);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = ErrnoStatus("rename", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  return SyncDir(parent.empty() ? "." : parent);
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path);
  }
  return Status::OK();
}

}  // namespace supa::dur
