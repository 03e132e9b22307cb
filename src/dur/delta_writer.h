// Incremental ("delta") checkpoints: only the parameter rows dirtied
// since the previous durable link, plus their Adam moments, keyed by
// *logical* offsets so delta files — like base files — are byte-identical
// at any shard count (DESIGN.md §16).
//
// File layout ("SUPADL01"):
//
//   header   48 bytes: u64 magic | num_rows | num_floats | adam_step |
//            param_count | reserved=0
//   body     u64 logical offsets[num_rows] (ascending) |
//            u32 lens[num_rows] |
//            f32 params[num_floats] | m[num_floats] | v[num_floats]
//   footer   16 bytes: u64 magic "SUPACRC1" | u32 header crc | u32 body crc
//
// Capture cost is O(dirty rows), not O(total parameters) — the point of
// the exercise; BENCH_fig5.json's checkpoint_ops section pins the scaling.

#ifndef SUPA_DUR_DELTA_WRITER_H_
#define SUPA_DUR_DELTA_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace supa {
class SupaModel;
}  // namespace supa

namespace supa::dur {

struct LogicalCheckpoint;

/// An in-memory delta: rows sorted by ascending logical offset.
struct DeltaCapture {
  uint64_t adam_step = 0;
  uint64_t param_count = 0;
  std::vector<uint64_t> offsets;  // logical float offsets, ascending
  std::vector<uint32_t> lens;     // floats per row
  std::vector<float> params;      // concatenated rows, offsets order
  std::vector<float> m;
  std::vector<float> v;

  size_t num_rows() const { return offsets.size(); }
  size_t num_floats() const { return params.size(); }
};

/// Copies the optimizer's checkpoint-dirty rows out of the live model,
/// converting each physical offset to its logical coordinate. Must run on
/// the training thread (reads live buffers). O(dirty).
/// FailedPrecondition when the dirty set overflowed (take a base instead).
Result<DeltaCapture> CaptureDirtyRows(const SupaModel& model);

/// A SUPADL01 file's header, footer and row tables, checked: magic, size
/// arithmetic, footer magic, header CRC, and rows that are ascending,
/// disjoint, inside param_count and sum to num_floats. The row data is
/// not read: params start at `data_offset`, then m and v, num_floats
/// each. The body CRC covers the tables and then the data, so hashing
/// the data onto `table_crc` must give `body_crc`.
struct DeltaFileHead {
  uint64_t adam_step = 0;
  uint64_t param_count = 0;
  uint64_t num_floats = 0;
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> lens;
  uint64_t data_offset = 0;
  uint32_t table_crc = 0;
  uint32_t body_crc = 0;
};

/// Parses and checks the head of the open SUPADL01 file `fd` of
/// `file_size` bytes. The one parser of the format's header, footer and
/// tables.
Result<DeltaFileHead> ReadDeltaFileHead(int fd, uint64_t file_size,
                                        const std::string& path);

/// Writes / reads a SUPADL01 file (fsynced; fully validated on read).
Status WriteDeltaFile(const std::string& path, const DeltaCapture& delta);
Result<DeltaCapture> ReadDeltaFile(const std::string& path);

/// Patches `lc`, a base read into memory, with the delta's rows and
/// advances its adam_step. InvalidArgument on param_count mismatch or
/// out-of-range rows. Recovery and compaction stream the chain through
/// dur::ChainReader instead; this is the in-memory reference.
Status ApplyDelta(const DeltaCapture& delta, LogicalCheckpoint* lc);

}  // namespace supa::dur

#endif  // SUPA_DUR_DELTA_WRITER_H_
