// SUPACP01 full ("base") checkpoints: all embedding parameters plus Adam
// state in the canonical *logical* layout, so files are byte-identical at
// any shard count and load into a model with any other shard count
// (DESIGN.md §11, §16).
//
// File layout:
//
//   header   56 bytes: u64 magic "SUPACP01" | num_nodes | num_relations |
//            num_node_types | dim | param_count | adam_step
//   body     3 × param_count f32 blobs: params, adam.m, adam.v
//   footer   16 bytes: u64 magic "SUPACRC1" | u32 header crc32c |
//            u32 body crc32c
//
// Every file must carry the footer: one without it is rejected, and every
// load checks both CRCs. LoadCheckpoint validates everything — magic, size
// arithmetic, CRCs, layout-vs-model — in a first streamed pass before it
// mutates the model, so a truncated or bit-flipped file fails cleanly with
// a descriptive Status and leaves the model untouched (DESIGN.md §16.4).

#ifndef SUPA_DUR_CHECKPOINT_H_
#define SUPA_DUR_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dur/fsio.h"
#include "util/status.h"

namespace supa {
class SupaModel;
}  // namespace supa

namespace supa::dur {

/// The layout identity a checkpoint was written for; must match the
/// loading model exactly.
struct CheckpointMeta {
  uint64_t num_nodes = 0;
  uint64_t num_relations = 0;
  uint64_t num_node_types = 0;
  uint64_t dim = 0;
  uint64_t param_count = 0;
  uint64_t adam_step = 0;
};

/// A full model state in logical (shard-independent) order.
struct LogicalCheckpoint {
  CheckpointMeta meta;
  std::vector<float> params;
  std::vector<float> m;
  std::vector<float> v;
};

/// Gathers `model`'s live state into logical order.
LogicalCheckpoint GatherLogicalState(const SupaModel& model);

/// Checks that `meta` matches `model`'s layout; FailedPrecondition if not.
Status ValidateMetaAgainstModel(const CheckpointMeta& meta,
                                const SupaModel& model);

/// A SUPACP01 file's header and footer, checked: magic, size arithmetic,
/// footer magic and header CRC. The body is not read; its offset is
/// kBodyOffset and `body_crc` is what it must hash to.
struct BaseFileHead {
  static constexpr uint64_t kBodyOffset = 56;
  CheckpointMeta meta;
  uint32_t body_crc = 0;
};

/// Parses and checks the head of the open SUPACP01 file `fd` of
/// `file_size` bytes. The one parser of the format's header and footer.
Result<BaseFileHead> ReadBaseFileHead(int fd, uint64_t file_size,
                                      const std::string& path);

/// Writes a SUPACP01 file front to back without holding its body: Create
/// writes the header, Append takes the body in file order (params, m, v:
/// 3 × param_count floats) and hashes it on the way, and Finish writes the
/// CRC footer and fsyncs. Plain writes; callers needing atomicity write to
/// a tmp name first. A writer destroyed before Finish succeeds removes
/// its file.
class BaseFileWriter {
 public:
  static Result<BaseFileWriter> Create(const std::string& path,
                                       const CheckpointMeta& meta);
  BaseFileWriter(BaseFileWriter&&) noexcept = default;
  ~BaseFileWriter();

  Status Append(const float* data, size_t n);
  Status Finish();

 private:
  BaseFileWriter() = default;

  std::string path_;
  ScopedFd fd_;
  uint64_t remaining_ = 0;  // body floats still expected
  uint32_t header_crc_ = 0;
  uint32_t body_crc_ = 0;
};

/// Writes `lc` as a SUPACP01 file through BaseFileWriter.
Status WriteBaseFile(const std::string& path, const LogicalCheckpoint& lc);

/// Reads and fully validates a SUPACP01 file: its size, magic and both
/// footer CRCs. A file without its footer is rejected. Never partially
/// succeeds.
Result<LogicalCheckpoint> ReadBaseFile(const std::string& path);

}  // namespace supa::dur

namespace supa {

/// Writes `model`'s parameters and Adam state to `path` (SUPACP01 with
/// CRC footer). The file embeds the layout for load-time checks.
Status SaveCheckpoint(const SupaModel& model, const std::string& path);

/// Restores parameters and optimizer state into `model`, which must have
/// been constructed with a matching dataset + dim. It streams the file
/// twice through dur::ChainReader: a first pass checks every byte and the
/// layout before any model mutation, a second scatters it into the model.
/// Only a file that changes between the passes fails after the model was
/// written (an IOError). The model's graph is not part of the checkpoint
/// — the durability WAL (dur/recovery.h) or the original dataset rebuilds
/// it.
Status LoadCheckpoint(const std::string& path, SupaModel* model);

}  // namespace supa

#endif  // SUPA_DUR_CHECKPOINT_H_
