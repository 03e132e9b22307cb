#include "dur/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include "core/model.h"
#include "dur/chain_reader.h"
#include "dur/fsio.h"
#include "util/crc32c.h"

namespace supa::dur {
namespace {

constexpr uint64_t kMagic = 0x5355504143503031ULL;     // "SUPACP01"
constexpr uint64_t kFooterMagic = 0x5355504143524331ULL;  // "SUPACRC1"
constexpr size_t kHeaderBytes = BaseFileHead::kBodyOffset;
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

Result<BaseFileHead> ReadBaseFileHead(int fd, uint64_t file_size,
                                      const std::string& path) {
  if (file_size < kHeaderBytes) {
    return Status::IOError("checkpoint smaller than its header (" +
                           std::to_string(file_size) + " bytes): " + path);
  }
  Header header;
  SUPA_RETURN_NOT_OK(ReadAt(fd, &header, sizeof(header), 0, path));
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
  Footer footer;
  SUPA_RETURN_NOT_OK(
      ReadAt(fd, &footer, sizeof(footer), file_size - kFooterBytes, path));
  if (footer.magic != kFooterMagic) {
    return Status::IOError("bad checkpoint footer magic: " + path);
  }
  if (footer.header_crc != Crc32c(&header, sizeof(header))) {
    return Status::IOError("checkpoint header CRC mismatch: " + path);
  }

  BaseFileHead head;
  head.meta.num_nodes = header.num_nodes;
  head.meta.num_relations = header.num_relations;
  head.meta.num_node_types = header.num_node_types;
  head.meta.dim = header.dim;
  head.meta.param_count = header.param_count;
  head.meta.adam_step = header.adam_step;
  head.body_crc = footer.body_crc;
  return head;
}

Result<BaseFileWriter> BaseFileWriter::Create(const std::string& path,
                                              const CheckpointMeta& meta) {
  BaseFileWriter writer;
  writer.path_ = path;
  writer.fd_ = ScopedFd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  if (writer.fd_.get() < 0) return ErrnoStatus("open", path);
  writer.remaining_ = 3 * meta.param_count;

  Header header;
  header.num_nodes = meta.num_nodes;
  header.num_relations = meta.num_relations;
  header.num_node_types = meta.num_node_types;
  header.dim = meta.dim;
  header.param_count = meta.param_count;
  header.adam_step = meta.adam_step;
  writer.header_crc_ = Crc32c(&header, sizeof(header));
  SUPA_RETURN_NOT_OK(WriteAll(writer.fd_.get(), &header, sizeof(header), path));
  return writer;
}

BaseFileWriter::~BaseFileWriter() {
  if (fd_.get() < 0) return;
  fd_.Close();
  ::unlink(path_.c_str());
}

Status BaseFileWriter::Append(const float* data, size_t n) {
  if (n > remaining_) {
    return Status::Internal("base file body overrun: " + path_);
  }
  remaining_ -= n;
  body_crc_ = Crc32c(data, n * sizeof(float), body_crc_);
  return WriteAll(fd_.get(), data, n * sizeof(float), path_);
}

Status BaseFileWriter::Finish() {
  if (remaining_ != 0) {
    return Status::Internal("base file body is " + std::to_string(remaining_) +
                            " floats short: " + path_);
  }
  Footer footer;
  footer.header_crc = header_crc_;
  footer.body_crc = body_crc_;
  SUPA_RETURN_NOT_OK(WriteAll(fd_.get(), &footer, sizeof(footer), path_));
  if (::fsync(fd_.get()) != 0) return ErrnoStatus("fsync", path_);
  fd_.Close();  // the file is complete: the destructor keeps it
  return Status::OK();
}

Status WriteBaseFile(const std::string& path, const LogicalCheckpoint& lc) {
  SUPA_ASSIGN_OR_RETURN(BaseFileWriter writer,
                        BaseFileWriter::Create(path, lc.meta));
  for (const std::vector<float>* region : {&lc.params, &lc.m, &lc.v}) {
    SUPA_RETURN_NOT_OK(writer.Append(region->data(), region->size()));
  }
  return writer.Finish();
}

Result<LogicalCheckpoint> ReadBaseFile(const std::string& path) {
  uint64_t file_size = 0;
  SUPA_ASSIGN_OR_RETURN(const ScopedFd fd, OpenForRead(path, &file_size));
  SUPA_ASSIGN_OR_RETURN(const BaseFileHead head,
                        ReadBaseFileHead(fd.get(), file_size, path));

  LogicalCheckpoint lc;
  lc.meta = head.meta;
  uint64_t at = kHeaderBytes;
  uint32_t body_crc = 0;
  for (std::vector<float>* region : {&lc.params, &lc.m, &lc.v}) {
    region->resize(head.meta.param_count);
    const size_t bytes = region->size() * sizeof(float);
    SUPA_RETURN_NOT_OK(ReadAt(fd.get(), region->data(), bytes, at, path));
    body_crc = Crc32c(region->data(), bytes, body_crc);
    at += bytes;
  }
  if (body_crc != head.body_crc) {
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
  SUPA_ASSIGN_OR_RETURN(dur::ChainReader chain, dur::ChainReader::Open(path, {}));
  SUPA_RETURN_NOT_OK(dur::VerifyChainFor(chain, *model));
  return dur::LoadChainInto(chain, model);
}

}  // namespace supa
