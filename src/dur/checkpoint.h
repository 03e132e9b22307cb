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
// The footer is new in the durability engine; files written before it
// (bare header + body) still load, with size validation but no CRC check.
// LoadCheckpoint validates everything — magic, version, size arithmetic,
// CRCs, layout-vs-model — before mutating the model, so a truncated or
// bit-flipped file fails cleanly with a descriptive Status and leaves the
// model untouched.

#ifndef SUPA_DUR_CHECKPOINT_H_
#define SUPA_DUR_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

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

/// Writes a SUPACP01 file (with CRC footer) atomically-enough for the
/// engine's needs: plain write; callers needing atomicity write to a tmp
/// name first. fsyncs before returning.
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
/// been constructed with a matching dataset + dim. All validation happens
/// before any model mutation. The model's graph is not part of the
/// checkpoint — the durability WAL (dur/recovery.h) or the original
/// dataset rebuilds it.
Status LoadCheckpoint(const std::string& path, SupaModel* model);

}  // namespace supa

#endif  // SUPA_DUR_CHECKPOINT_H_
