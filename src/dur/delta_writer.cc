#include "dur/delta_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>

#include "core/model.h"
#include "dur/checkpoint.h"
#include "util/crc32c.h"

namespace supa::dur {
namespace {

constexpr uint64_t kDeltaMagic = 0x53555041444C3031ULL;   // "SUPADL01"
constexpr uint64_t kFooterMagic = 0x5355504143524331ULL;  // "SUPACRC1"

struct DeltaHeader {
  uint64_t magic = kDeltaMagic;
  uint64_t num_rows = 0;
  uint64_t num_floats = 0;
  uint64_t adam_step = 0;
  uint64_t param_count = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(DeltaHeader) == 48);

struct Footer {
  uint64_t magic = kFooterMagic;
  uint32_t header_crc = 0;
  uint32_t body_crc = 0;
};
static_assert(sizeof(Footer) == 16);

Status Errno(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " " + path + ": " +
                         std::strerror(errno));
}

Status WriteAll(int fd, const void* data, size_t size,
                const std::string& path) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, void* data, size_t size, const std::string& path) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read", path);
    }
    if (n == 0) return Status::IOError("delta truncated mid-read: " + path);
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<DeltaCapture> CaptureDirtyRows(const SupaModel& model) {
  const SparseAdam& adam = model.optimizer();
  if (adam.checkpoint_dirty_overflow()) {
    return Status::FailedPrecondition(
        "checkpoint dirty set overflowed; a full base is required");
  }
  const store::EmbeddingBank& bank = model.embeddings();
  const std::vector<SparseAdam::RowSpan>& dirty = adam.checkpoint_dirty_rows();

  // (logical offset, physical offset, len) per row, then sort by logical
  // offset so the file — and its CRC — is independent of first-write
  // order and shard layout.
  struct Row {
    uint64_t logical;
    size_t physical;
    uint32_t len;
  };
  std::vector<Row> rows;
  rows.reserve(dirty.size());
  size_t num_floats = 0;
  for (const SparseAdam::RowSpan& row : dirty) {
    rows.push_back(Row{bank.layout().PhysicalToLogical(row.offset),
                       row.offset, row.len});
    num_floats += row.len;
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.logical < b.logical; });

  DeltaCapture delta;
  delta.adam_step = adam.step_count();
  delta.param_count = bank.size();
  delta.offsets.reserve(rows.size());
  delta.lens.reserve(rows.size());
  delta.params.reserve(num_floats);
  delta.m.reserve(num_floats);
  delta.v.reserve(num_floats);
  const float* params = bank.data();
  const float* m = adam.m_data();
  const float* v = adam.v_data();
  for (const Row& row : rows) {
    delta.offsets.push_back(row.logical);
    delta.lens.push_back(row.len);
    delta.params.insert(delta.params.end(), params + row.physical,
                        params + row.physical + row.len);
    delta.m.insert(delta.m.end(), m + row.physical, m + row.physical + row.len);
    delta.v.insert(delta.v.end(), v + row.physical, v + row.physical + row.len);
  }
  return delta;
}

Status WriteDeltaFile(const std::string& path, const DeltaCapture& delta) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);

  DeltaHeader header;
  header.num_rows = delta.num_rows();
  header.num_floats = delta.num_floats();
  header.adam_step = delta.adam_step;
  header.param_count = delta.param_count;

  Footer footer;
  footer.header_crc = Crc32c(&header, sizeof(header));
  uint32_t crc = 0;
  crc = Crc32c(delta.offsets.data(), delta.offsets.size() * sizeof(uint64_t),
               crc);
  crc = Crc32c(delta.lens.data(), delta.lens.size() * sizeof(uint32_t), crc);
  crc = Crc32c(delta.params.data(), delta.params.size() * sizeof(float), crc);
  crc = Crc32c(delta.m.data(), delta.m.size() * sizeof(float), crc);
  crc = Crc32c(delta.v.data(), delta.v.size() * sizeof(float), crc);
  footer.body_crc = crc;

  Status st = WriteAll(fd, &header, sizeof(header), path);
  if (st.ok()) {
    st = WriteAll(fd, delta.offsets.data(),
                  delta.offsets.size() * sizeof(uint64_t), path);
  }
  if (st.ok()) {
    st = WriteAll(fd, delta.lens.data(), delta.lens.size() * sizeof(uint32_t),
                  path);
  }
  if (st.ok()) {
    st = WriteAll(fd, delta.params.data(), delta.params.size() * sizeof(float),
                  path);
  }
  if (st.ok()) {
    st = WriteAll(fd, delta.m.data(), delta.m.size() * sizeof(float), path);
  }
  if (st.ok()) {
    st = WriteAll(fd, delta.v.data(), delta.v.size() * sizeof(float), path);
  }
  if (st.ok()) st = WriteAll(fd, &footer, sizeof(footer), path);
  if (st.ok() && ::fsync(fd) != 0) st = Errno("fsync", path);
  ::close(fd);
  if (!st.ok()) ::unlink(path.c_str());
  return st;
}

Result<DeltaCapture> ReadDeltaFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such delta: " + path);
    return Errno("open", path);
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct stat stt;
  if (::fstat(fd, &stt) != 0) return Errno("fstat", path);
  const uint64_t file_size = static_cast<uint64_t>(stt.st_size);
  if (file_size < sizeof(DeltaHeader)) {
    return Status::IOError("delta smaller than its header: " + path);
  }

  DeltaHeader header;
  SUPA_RETURN_NOT_OK(ReadAll(fd, &header, sizeof(header), path));
  if (header.magic != kDeltaMagic) {
    return Status::InvalidArgument(path + " is not a SUPA delta checkpoint");
  }
  constexpr uint64_t kMaxFloats = uint64_t{1} << 40;
  if (header.num_floats > kMaxFloats || header.num_rows > header.num_floats) {
    return Status::IOError("implausible delta row counts: " + path);
  }
  const uint64_t expect = sizeof(DeltaHeader) + header.num_rows * 12 +
                          3 * header.num_floats * sizeof(float) +
                          sizeof(Footer);
  if (file_size != expect) {
    return Status::IOError(
        "delta size mismatch: " + std::to_string(file_size) +
        " bytes, header implies " + std::to_string(expect) + ": " + path);
  }

  DeltaCapture delta;
  delta.adam_step = header.adam_step;
  delta.param_count = header.param_count;
  delta.offsets.resize(header.num_rows);
  delta.lens.resize(header.num_rows);
  delta.params.resize(header.num_floats);
  delta.m.resize(header.num_floats);
  delta.v.resize(header.num_floats);
  SUPA_RETURN_NOT_OK(ReadAll(fd, delta.offsets.data(),
                             delta.offsets.size() * sizeof(uint64_t), path));
  SUPA_RETURN_NOT_OK(ReadAll(fd, delta.lens.data(),
                             delta.lens.size() * sizeof(uint32_t), path));
  SUPA_RETURN_NOT_OK(ReadAll(fd, delta.params.data(),
                             delta.params.size() * sizeof(float), path));
  SUPA_RETURN_NOT_OK(
      ReadAll(fd, delta.m.data(), delta.m.size() * sizeof(float), path));
  SUPA_RETURN_NOT_OK(
      ReadAll(fd, delta.v.data(), delta.v.size() * sizeof(float), path));

  Footer footer;
  SUPA_RETURN_NOT_OK(ReadAll(fd, &footer, sizeof(footer), path));
  if (footer.magic != kFooterMagic) {
    return Status::IOError("bad delta footer magic: " + path);
  }
  if (footer.header_crc != Crc32c(&header, sizeof(header))) {
    return Status::IOError("delta header CRC mismatch: " + path);
  }
  uint32_t crc = 0;
  crc = Crc32c(delta.offsets.data(), delta.offsets.size() * sizeof(uint64_t),
               crc);
  crc = Crc32c(delta.lens.data(), delta.lens.size() * sizeof(uint32_t), crc);
  crc = Crc32c(delta.params.data(), delta.params.size() * sizeof(float), crc);
  crc = Crc32c(delta.m.data(), delta.m.size() * sizeof(float), crc);
  crc = Crc32c(delta.v.data(), delta.v.size() * sizeof(float), crc);
  if (footer.body_crc != crc) {
    return Status::IOError("delta body CRC mismatch: " + path);
  }
  const uint64_t total =
      std::accumulate(delta.lens.begin(), delta.lens.end(), uint64_t{0});
  if (total != header.num_floats) {
    return Status::IOError("delta row lengths do not sum to num_floats: " +
                           path);
  }
  return delta;
}

Status ApplyDelta(const DeltaCapture& delta, LogicalCheckpoint* lc) {
  if (delta.param_count != lc->meta.param_count) {
    return Status::InvalidArgument(
        "delta param_count does not match the base checkpoint");
  }
  size_t pos = 0;
  for (size_t i = 0; i < delta.offsets.size(); ++i) {
    const uint64_t off = delta.offsets[i];
    const uint32_t len = delta.lens[i];
    if (off + len > lc->params.size()) {
      return Status::InvalidArgument("delta row out of range");
    }
    std::memcpy(lc->params.data() + off, delta.params.data() + pos,
                len * sizeof(float));
    std::memcpy(lc->m.data() + off, delta.m.data() + pos, len * sizeof(float));
    std::memcpy(lc->v.data() + off, delta.v.data() + pos, len * sizeof(float));
    pos += len;
  }
  lc->meta.adam_step = delta.adam_step;
  return Status::OK();
}

}  // namespace supa::dur
