// Streams the state of one checkpoint chain — a base plus the deltas
// written after it — in logical order through two fixed-size buffers,
// checking every CRC on the way (DESIGN.md §16.3–16.4). It is the only way
// the library reads a chain: recovery, checkpoint loads and compaction all
// stream through it, so none of them builds a whole-state copy.
//
// Region by region (params, then m, then v) and chunk by chunk, the reader
// preads the base's chunk, then copies in the rows of each delta that fall
// inside it, oldest delta first, so the newest write wins and a sink sees
// every float once. Every file is read front to back, so its body CRC is
// computed as it streams and checked once the stream has read it to its
// end. Memory is one chunk buffer and one delta-row buffer (1 MiB each)
// plus the deltas' row tables; no buffer grows with the state. Files are
// read with pread, never mapped: a mapped file truncated underneath would
// raise SIGBUS instead of returning a Status.

#ifndef SUPA_DUR_CHAIN_READER_H_
#define SUPA_DUR_CHAIN_READER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dur/checkpoint.h"
#include "dur/delta_writer.h"
#include "dur/fsio.h"
#include "dur/manifest.h"
#include "util/status.h"

namespace supa {
class SupaModel;
}  // namespace supa

namespace supa::dur {

/// The three parallel state buffers, in file order.
enum class StateRegion { kParams, kM, kV };

/// Receives `n` floats of a chain's state: `region` at logical offsets
/// [offset, offset + n). A stream calls it region by region in file
/// order, each region in ascending offset order, and hands it every float
/// exactly once.
using ChainSink = std::function<Status(StateRegion region, uint64_t offset,
                                       const float* data, size_t n)>;

class ChainReader {
 public:
  /// Floats per buffer: 1 MiB.
  static constexpr size_t kChunkFloats = (size_t{1} << 20) / sizeof(float);

  /// Opens a base and the deltas written after it, oldest first, and
  /// checks everything but the body CRCs before any sink sees a byte: each
  /// file's magic, size and header CRC, each delta's param_count against
  /// the base, and each delta's row tables (ascending, disjoint, in range,
  /// summing to num_floats).
  static Result<ChainReader> Open(const std::string& base_path,
                                  const std::vector<std::string>& delta_paths);

  /// The base's layout, with the Adam step of the chain's newest file.
  const CheckpointMeta& meta() const { return meta_; }

  /// Streams the whole state through `sink` (empty: read and check only)
  /// and checks every file's body CRC; a mismatch is an IOError. A sink
  /// error stops the stream and is returned. Each call re-reads and
  /// re-checks every body.
  Status Stream(const ChainSink& sink);

 private:
  struct Delta {
    std::string path;
    ScopedFd fd;
    DeltaFileHead head;
  };
  /// Where a delta's walk through one region stands: the next row, the
  /// floats of it already consumed (a row can straddle a chunk boundary),
  /// the region floats consumed, and the running body CRC.
  struct Cursor {
    size_t row = 0;
    uint64_t done = 0;
    uint64_t pos = 0;
    uint32_t crc = 0;
  };

  ChainReader() = default;

  /// Reads the part of delta `d`'s `region` data that falls in the chunk
  /// [begin, end), hashes it, and (when `copy`) writes it over the chunk.
  Status PatchChunk(size_t d, size_t region, uint64_t begin, uint64_t end,
                    bool copy, Cursor* cursor);

  std::string base_path_;
  ScopedFd base_fd_;
  uint32_t base_body_crc_ = 0;
  std::vector<Delta> deltas_;
  CheckpointMeta meta_;
  std::vector<float> chunk_;
  std::vector<float> rows_;
};

/// Opens the chain behind `manifest`'s link `link` in `dir`: the newest
/// base at or before it and the deltas up to it. An IOError when no base
/// lies beneath the link, or when the chain's newest Adam step is not the
/// link's recorded adam_step.
Result<ChainReader> OpenLinkChain(const std::string& dir,
                                  const Manifest& manifest, size_t link);

/// The first of a load's two passes: checks the chain's layout against
/// `model`, then streams it with no sink, so every byte is read and every
/// CRC checked. Touches no model state.
Status VerifyChainFor(ChainReader& chain, const SupaModel& model);

/// The second pass: streams `chain` into `model`'s params, m and v through
/// SupaModel::LoadState (one LeaseAll, Φ_best discarded, Adam step set,
/// whole state checkpoint-dirty). Run it after VerifyChainFor. A failure
/// here means a file changed since the verify pass; the model is then
/// partly written, and the returned IOError says so.
Status LoadChainInto(ChainReader& chain, SupaModel* model);

/// Streams `chain` into a new SUPACP01 file at `path`: the bytes
/// SaveCheckpoint writes for the same state. On any failure, an input CRC
/// mismatch included, the partial file is removed.
Status WriteChainAsBase(ChainReader& chain, const std::string& path);

}  // namespace supa::dur

#endif  // SUPA_DUR_CHAIN_READER_H_
