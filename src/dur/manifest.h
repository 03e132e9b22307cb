// Checkpoint-chain manifest (DESIGN.md §16).
//
// The manifest is the durable table of contents for a checkpoint
// directory: an ordered chain of links, each naming a base (full) or
// delta (dirty rows only) checkpoint file, the Adam step it captures,
// the WAL sequence number it is consistent with, and the trainer cursor
// needed to resume from it. Recovery picks the newest link whose wal_seq
// is covered by the valid WAL prefix, streams base + deltas up to it into
// the model (dur/chain_reader.h), then replays the WAL.
//
// The file (`MANIFEST`) is line-oriented text, rewritten atomically
// (tmp + rename + dir-fsync) on every change, so no record-level CRC is
// needed — readers see either the previous or the next complete version:
//
//   SUPAMANIFEST 1
//   link base  ckpt-0000000000000000.base  <adam_step> <wal_seq> <cursor>
//   link delta ckpt-0000000000000001.delta <adam_step> <wal_seq> <cursor>
//   ...
//
// <cursor> is the TrainerCursor packed little-endian and hex-encoded; see
// EncodeCursor.

#ifndef SUPA_DUR_MANIFEST_H_
#define SUPA_DUR_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/durability.h"
#include "util/status.h"

namespace supa::dur {

struct ManifestLink {
  enum class Kind { kBase, kDelta };
  Kind kind = Kind::kBase;
  /// Checkpoint file name, relative to the durability directory.
  std::string file;
  /// Optimizer step count at the cut (for observability and sanity checks).
  uint64_t adam_step = 0;
  /// Number of WAL records this link's state reflects; replaying records
  /// [0, wal_seq) onto the link's model state reproduces the cut exactly.
  uint64_t wal_seq = 0;
  /// Resume point for InsLearnTrainer::Train.
  TrainerCursor cursor;
};

struct Manifest {
  std::vector<ManifestLink> links;
};

/// Hex encoding of the packed cursor (see manifest.cc for the layout).
std::string EncodeCursor(const TrainerCursor& cursor);
bool DecodeCursor(const std::string& hex, TrainerCursor* out);

/// Loads `dir`/MANIFEST. NotFound when the file does not exist.
Result<Manifest> LoadManifest(const std::string& dir);

/// Atomically replaces `dir`/MANIFEST.
Status SaveManifest(const std::string& dir, const Manifest& manifest);

}  // namespace supa::dur

#endif  // SUPA_DUR_MANIFEST_H_
