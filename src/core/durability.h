// Core-side durability interfaces (DESIGN.md §16).
//
// The durability engine lives in src/dur/, a layer *above* core, so core
// cannot name its types. Instead core exposes two narrow hook interfaces —
// an edge log the model calls on every graph mutation, and a checkpoint
// sink the trainer calls at batch boundaries — plus the cursor struct that
// pins everything a resumed trainer needs to continue bit-identically.
// When no sink is attached (the default), every hook site is a null-check
// and training is byte-for-byte the pre-durability computation.

#ifndef SUPA_CORE_DURABILITY_H_
#define SUPA_CORE_DURABILITY_H_

#include <cstdint>

#include "graph/types.h"
#include "util/rng.h"
#include "util/status.h"

namespace supa {

class SupaModel;

/// Everything beyond the parameter/optimizer state that a resumed trainer
/// needs to continue the stream exactly where the crashed one left off.
/// Serialized (packed little-endian) into each manifest link.
struct TrainerCursor {
  /// WAL records covered by the checkpoint link this cursor rides on:
  /// recovery replays records [0, wal_seq) and discards the rest.
  uint64_t wal_seq = 0;
  /// Stream index the trainer resumes at (the first untrained edge).
  uint64_t next_edge_index = 0;
  /// Batches completed so far (drives periodic-cut cadence on resume).
  uint64_t batches_done = 0;
  /// The model RNG (SupaModel::rng_state). The initial rows are keyed by
  /// logical row and training draws by optimizer step, so the model RNG
  /// draws nothing and this is Rng(seed)'s state; the field keeps the
  /// MANIFEST cursor layout.
  Rng::State model_rng = {};
  /// The trainer's validation-scoring stream mid-flight.
  Rng::State valid_rng = {};
};

/// Receives every committed graph mutation, in commit order, on the thread
/// that commits it (the trainer or the ingest dispatcher — never
/// concurrently). The durability engine implements this with a WAL append;
/// the graph can then be rebuilt from the log alone, closing the
/// long-standing "the model's graph is not part of the checkpoint" gap.
class EdgeLogSink {
 public:
  virtual ~EdgeLogSink() = default;

  /// An edge was inserted (SupaModel::ObserveEdge succeeded).
  virtual void LogAdd(const TemporalEdge& e) = 0;

  /// An edge was removed (SupaModel::DeleteEdge's graph mutation
  /// succeeded). `t` is the deletion's interaction time.
  virtual void LogRemove(NodeId u, NodeId v, EdgeTypeId r, Timestamp t) = 0;
};

/// Called by the trainer at durable cut points — batch boundaries, where
/// no Φ_best snapshot is in flight and the validation edges of the batch
/// have been observed. The engine captures a checkpoint link (O(dirty)
/// rows) synchronously and does the file IO in the background, so training
/// resumes immediately.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Captures a durable link for the model's current state. `cursor`
  /// describes the stream position this state corresponds to (wal_seq is
  /// filled in by the engine from its own append count).
  virtual Status OnCheckpoint(SupaModel& model, const TrainerCursor& cursor) = 0;
};

}  // namespace supa

#endif  // SUPA_CORE_DURABILITY_H_
