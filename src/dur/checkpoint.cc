#include "dur/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/model.h"
#include "dur/fsio.h"
#include "util/crc32c.h"

namespace supa::dur {
namespace {

constexpr uint64_t kMagic = 0x5355504143503031ULL;     // "SUPACP01"
constexpr uint64_t kFooterMagic = 0x5355504143524331ULL;  // "SUPACRC1"
constexpr size_t kHeaderBytes = 7 * 8;
constexpr size_t kFooterBytes = 8 + 4 + 4;

struct Header {
  uint64_t magic = kMagic;
  uint64_t num_nodes = 0;
  uint64_t num_relations = 0;
  uint64_t num_node_types = 0;
  uint64_t dim = 0;
  uint64_t param_count = 0;
  uint64_t adam_step = 0;
};
static_assert(sizeof(Header) == kHeaderBytes);

struct Footer {
  uint64_t magic = kFooterMagic;
  uint32_t header_crc = 0;
  uint32_t body_crc = 0;
};
static_assert(sizeof(Footer) == kFooterBytes);

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
    if (n == 0) {
      return Status::IOError("checkpoint truncated mid-read: " + path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

LogicalCheckpoint GatherLogicalState(const SupaModel& model) {
  const store::EmbeddingBank& bank = model.embeddings();
  const store::EmbeddingLayout& layout = bank.layout();
  const SparseAdam& adam = model.optimizer();
  const size_t n = bank.size();

  LogicalCheckpoint lc;
  lc.meta.num_nodes = layout.num_nodes();
  lc.meta.num_relations = layout.num_relations();
  lc.meta.num_node_types = layout.num_node_types();
  lc.meta.dim = static_cast<uint64_t>(layout.dim());
  lc.meta.param_count = n;
  lc.meta.adam_step = adam.step_count();

  // Permuted straight out of the live buffers: no intermediate copy.
  lc.params.resize(n);
  lc.m.resize(n);
  lc.v.resize(n);
  bank.GatherLogical(bank.data(), lc.params.data());
  bank.GatherLogical(adam.m_data(), lc.m.data());
  bank.GatherLogical(adam.v_data(), lc.v.data());
  return lc;
}

Status ValidateMetaAgainstModel(const CheckpointMeta& meta,
                                const SupaModel& model) {
  const store::EmbeddingLayout& layout = model.embeddings().layout();
  if (meta.num_nodes != layout.num_nodes() ||
      meta.num_relations != layout.num_relations() ||
      meta.num_node_types != layout.num_node_types() ||
      meta.dim != static_cast<uint64_t>(layout.dim()) ||
      meta.param_count != layout.size()) {
    return Status::FailedPrecondition(
        "checkpoint layout does not match the model (wrong dataset or dim)");
  }
  return Status::OK();
}

Status WriteBaseFile(const std::string& path, const LogicalCheckpoint& lc) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);

  Header header;
  header.num_nodes = lc.meta.num_nodes;
  header.num_relations = lc.meta.num_relations;
  header.num_node_types = lc.meta.num_node_types;
  header.dim = lc.meta.dim;
  header.param_count = lc.meta.param_count;
  header.adam_step = lc.meta.adam_step;

  Footer footer;
  footer.header_crc = Crc32c(&header, sizeof(header));
  uint32_t body_crc = 0;
  body_crc = Crc32c(lc.params.data(), lc.params.size() * sizeof(float),
                    body_crc);
  body_crc = Crc32c(lc.m.data(), lc.m.size() * sizeof(float), body_crc);
  body_crc = Crc32c(lc.v.data(), lc.v.size() * sizeof(float), body_crc);
  footer.body_crc = body_crc;

  Status st = WriteAll(fd, &header, sizeof(header), path);
  if (st.ok()) {
    st = WriteAll(fd, lc.params.data(), lc.params.size() * sizeof(float),
                  path);
  }
  if (st.ok()) {
    st = WriteAll(fd, lc.m.data(), lc.m.size() * sizeof(float), path);
  }
  if (st.ok()) {
    st = WriteAll(fd, lc.v.data(), lc.v.size() * sizeof(float), path);
  }
  if (st.ok()) st = WriteAll(fd, &footer, sizeof(footer), path);
  if (st.ok() && ::fsync(fd) != 0) st = Errno("fsync", path);
  ::close(fd);
  if (!st.ok()) ::unlink(path.c_str());
  return st;
}

Result<LogicalCheckpoint> ReadBaseFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such checkpoint: " + path);
    return Errno("open", path);
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct stat stt;
  if (::fstat(fd, &stt) != 0) return Errno("fstat", path);
  const uint64_t file_size = static_cast<uint64_t>(stt.st_size);
  if (file_size < kHeaderBytes) {
    return Status::IOError("checkpoint smaller than its header (" +
                           std::to_string(file_size) + " bytes): " + path);
  }

  Header header;
  SUPA_RETURN_NOT_OK(ReadAll(fd, &header, sizeof(header), path));
  if (header.magic != kMagic) {
    return Status::InvalidArgument(path + " is not a SUPA checkpoint");
  }
  // Guard the size arithmetic: param_count beyond what any real model
  // reaches means a corrupt header, and multiplying it blindly overflows.
  constexpr uint64_t kMaxParams = uint64_t{1} << 40;
  if (header.param_count > kMaxParams) {
    return Status::IOError("implausible checkpoint param_count " +
                           std::to_string(header.param_count) + ": " + path);
  }
  const uint64_t want_size =
      kHeaderBytes + 3 * header.param_count * sizeof(float) + kFooterBytes;
  if (file_size != want_size) {
    return Status::IOError("checkpoint size mismatch: " +
                           std::to_string(file_size) +
                           " bytes, header implies " +
                           std::to_string(want_size) + ": " + path);
  }

  LogicalCheckpoint lc;
  lc.meta.num_nodes = header.num_nodes;
  lc.meta.num_relations = header.num_relations;
  lc.meta.num_node_types = header.num_node_types;
  lc.meta.dim = header.dim;
  lc.meta.param_count = header.param_count;
  lc.meta.adam_step = header.adam_step;

  lc.params.resize(header.param_count);
  lc.m.resize(header.param_count);
  lc.v.resize(header.param_count);
  SUPA_RETURN_NOT_OK(
      ReadAll(fd, lc.params.data(), lc.params.size() * sizeof(float), path));
  SUPA_RETURN_NOT_OK(
      ReadAll(fd, lc.m.data(), lc.m.size() * sizeof(float), path));
  SUPA_RETURN_NOT_OK(
      ReadAll(fd, lc.v.data(), lc.v.size() * sizeof(float), path));

  Footer footer;
  SUPA_RETURN_NOT_OK(ReadAll(fd, &footer, sizeof(footer), path));
  if (footer.magic != kFooterMagic) {
    return Status::IOError("bad checkpoint footer magic: " + path);
  }
  if (footer.header_crc != Crc32c(&header, sizeof(header))) {
    return Status::IOError("checkpoint header CRC mismatch: " + path);
  }
  uint32_t body_crc = 0;
  body_crc =
      Crc32c(lc.params.data(), lc.params.size() * sizeof(float), body_crc);
  body_crc = Crc32c(lc.m.data(), lc.m.size() * sizeof(float), body_crc);
  body_crc = Crc32c(lc.v.data(), lc.v.size() * sizeof(float), body_crc);
  if (footer.body_crc != body_crc) {
    return Status::IOError("checkpoint body CRC mismatch: " + path);
  }
  return lc;
}

}  // namespace supa::dur

namespace supa {

Status SaveCheckpoint(const SupaModel& model, const std::string& path) {
  return dur::WriteBaseFile(path, dur::GatherLogicalState(model));
}

Status LoadCheckpoint(const std::string& path, SupaModel* model) {
  // ReadBaseFile performs every validation (magic, size, CRCs) before we
  // touch the model; ValidateMetaAgainstModel completes the checks. Only
  // then is the state scattered into the model, so a bad file can never
  // partially mutate it.
  SUPA_ASSIGN_OR_RETURN(const dur::LogicalCheckpoint lc,
                        dur::ReadBaseFile(path));
  SUPA_RETURN_NOT_OK(dur::ValidateMetaAgainstModel(lc.meta, *model));
  model->LoadLogicalState(lc.params.data(), lc.m.data(), lc.v.data(),
                          lc.meta.adam_step);
  return Status::OK();
}

}  // namespace supa
