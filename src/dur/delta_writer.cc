#include "dur/delta_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/model.h"
#include "dur/checkpoint.h"
#include "dur/fsio.h"
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
  DeltaHeader header;
  header.num_rows = delta.num_rows();
  header.num_floats = delta.num_floats();
  header.adam_step = delta.adam_step;
  header.param_count = delta.param_count;

  struct Span {
    const void* data;
    size_t bytes;
  };
  const Span body[] = {
      {delta.offsets.data(), delta.offsets.size() * sizeof(uint64_t)},
      {delta.lens.data(), delta.lens.size() * sizeof(uint32_t)},
      {delta.params.data(), delta.params.size() * sizeof(float)},
      {delta.m.data(), delta.m.size() * sizeof(float)},
      {delta.v.data(), delta.v.size() * sizeof(float)},
  };
  Footer footer;
  footer.header_crc = Crc32c(&header, sizeof(header));
  for (const Span& span : body) {
    footer.body_crc = Crc32c(span.data, span.bytes, footer.body_crc);
  }

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  Status st = WriteAll(fd, &header, sizeof(header), path);
  for (const Span& span : body) {
    if (st.ok()) st = WriteAll(fd, span.data, span.bytes, path);
  }
  if (st.ok()) st = WriteAll(fd, &footer, sizeof(footer), path);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", path);
  ::close(fd);
  if (!st.ok()) ::unlink(path.c_str());
  return st;
}

Result<DeltaFileHead> ReadDeltaFileHead(int fd, uint64_t file_size,
                                        const std::string& path) {
  if (file_size < sizeof(DeltaHeader)) {
    return Status::IOError("delta smaller than its header: " + path);
  }
  DeltaHeader header;
  SUPA_RETURN_NOT_OK(ReadAt(fd, &header, sizeof(header), 0, path));
  if (header.magic != kDeltaMagic) {
    return Status::InvalidArgument(path + " is not a SUPA delta checkpoint");
  }
  constexpr uint64_t kMaxFloats = uint64_t{1} << 40;
  if (header.num_floats > kMaxFloats || header.num_rows > header.num_floats ||
      header.param_count > kMaxFloats) {
    return Status::IOError("implausible delta row counts: " + path);
  }
  const uint64_t table_bytes =
      header.num_rows * (sizeof(uint64_t) + sizeof(uint32_t));
  const uint64_t expect = sizeof(DeltaHeader) + table_bytes +
                          3 * header.num_floats * sizeof(float) +
                          sizeof(Footer);
  if (file_size != expect) {
    return Status::IOError(
        "delta size mismatch: " + std::to_string(file_size) +
        " bytes, header implies " + std::to_string(expect) + ": " + path);
  }
  Footer footer;
  SUPA_RETURN_NOT_OK(
      ReadAt(fd, &footer, sizeof(footer), file_size - sizeof(Footer), path));
  if (footer.magic != kFooterMagic) {
    return Status::IOError("bad delta footer magic: " + path);
  }
  if (footer.header_crc != Crc32c(&header, sizeof(header))) {
    return Status::IOError("delta header CRC mismatch: " + path);
  }

  DeltaFileHead head;
  head.adam_step = header.adam_step;
  head.param_count = header.param_count;
  head.num_floats = header.num_floats;
  head.body_crc = footer.body_crc;
  head.data_offset = sizeof(DeltaHeader) + table_bytes;
  head.offsets.resize(header.num_rows);
  head.lens.resize(header.num_rows);
  const size_t offsets_bytes = head.offsets.size() * sizeof(uint64_t);
  const size_t lens_bytes = head.lens.size() * sizeof(uint32_t);
  SUPA_RETURN_NOT_OK(ReadAt(fd, head.offsets.data(), offsets_bytes,
                            sizeof(DeltaHeader), path));
  SUPA_RETURN_NOT_OK(ReadAt(fd, head.lens.data(), lens_bytes,
                            sizeof(DeltaHeader) + offsets_bytes, path));
  head.table_crc = Crc32c(head.offsets.data(), offsets_bytes);
  head.table_crc = Crc32c(head.lens.data(), lens_bytes, head.table_crc);

  // Rows must be ascending, disjoint and inside the state, and their
  // lengths must add up to the floats the file carries.
  uint64_t prev_end = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < head.offsets.size(); ++i) {
    const uint64_t off = head.offsets[i];
    const uint64_t len = head.lens[i];
    if ((i > 0 && off <= head.offsets[i - 1]) || off < prev_end) {
      return Status::IOError("delta rows are not ascending and disjoint: " +
                             path);
    }
    if (off > header.param_count || len > header.param_count - off) {
      return Status::IOError("delta row out of range: " + path);
    }
    prev_end = off + len;
    total += len;
  }
  if (total != header.num_floats) {
    return Status::IOError("delta row lengths do not sum to num_floats: " +
                           path);
  }
  return head;
}

Result<DeltaCapture> ReadDeltaFile(const std::string& path) {
  uint64_t file_size = 0;
  SUPA_ASSIGN_OR_RETURN(const ScopedFd fd, OpenForRead(path, &file_size));
  SUPA_ASSIGN_OR_RETURN(DeltaFileHead head,
                        ReadDeltaFileHead(fd.get(), file_size, path));

  DeltaCapture delta;
  delta.adam_step = head.adam_step;
  delta.param_count = head.param_count;
  delta.offsets = std::move(head.offsets);
  delta.lens = std::move(head.lens);
  uint64_t at = head.data_offset;
  uint32_t crc = head.table_crc;
  for (std::vector<float>* region : {&delta.params, &delta.m, &delta.v}) {
    region->resize(head.num_floats);
    const size_t bytes = region->size() * sizeof(float);
    SUPA_RETURN_NOT_OK(ReadAt(fd.get(), region->data(), bytes, at, path));
    crc = Crc32c(region->data(), bytes, crc);
    at += bytes;
  }
  if (crc != head.body_crc) {
    return Status::IOError("delta body CRC mismatch: " + path);
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
