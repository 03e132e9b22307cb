// The durability engine: glues the WAL, the incremental checkpoint chain,
// and the manifest behind the two hooks the training stack exposes
// (DESIGN.md §16).
//
// Attach() wires the engine into a model as its EdgeLogSink (every
// committed ObserveEdge / DeleteEdge appends a WAL record, on the thread
// that commits the edge — the trainer or the ingest dispatcher) and turns
// on the optimizer's checkpoint dirty tracking. Handed to
// InsLearnConfig::checkpoint_sink, OnCheckpoint() runs at each durable
// cut: it syncs the WAL, captures either a full base (first link, or
// after an untracked whole-buffer mutation) or an O(dirty) delta on the
// training thread, then hands the serialisation + manifest append to a
// background writer thread so training resumes immediately. When the
// delta chain exceeds `compact_threshold`, the writer folds base + deltas
// into a fresh base file (byte-identical to a directly saved checkpoint)
// and drops the old files.
//
// Crash safety: a link is published by the atomic MANIFEST rewrite only
// after its checkpoint file is fsynced, and its wal_seq is only assigned
// after the WAL covering it is synced. A crash at any instant therefore
// leaves a manifest whose every link is materialisable, plus a WAL that
// extends at least to the newest link — exactly what dur::Recover needs.

#ifndef SUPA_DUR_ENGINE_H_
#define SUPA_DUR_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/durability.h"
#include "dur/checkpoint.h"
#include "dur/delta_writer.h"
#include "dur/manifest.h"
#include "dur/wal.h"
#include "obs/statusz.h"
#include "util/status.h"

namespace supa::dur {

struct DurabilityOptions {
  /// Directory holding the WAL segments, checkpoint files and MANIFEST.
  std::string dir;
  WalSync wal_sync = WalSync::kBatch;
  size_t wal_segment_bytes = 64u << 20;
  /// Compact the chain into a fresh base once it carries more than this
  /// many deltas since the last base.
  size_t compact_threshold = 8;
};

class DurabilityEngine : public EdgeLogSink, public CheckpointSink {
 public:
  /// Opens (or resumes) the durability directory and attaches to `model`:
  /// installs itself as the edge-log sink and enables checkpoint dirty
  /// tracking. The model must outlive the engine; the engine detaches in
  /// its destructor. The caller passes the engine as
  /// InsLearnConfig::checkpoint_sink.
  static Result<std::unique_ptr<DurabilityEngine>> Attach(
      SupaModel& model, DurabilityOptions options);

  ~DurabilityEngine() override;

  // EdgeLogSink — called on the edge-commit thread. The void interface
  // cannot propagate errors, so append failures are stashed and surfaced
  // by the next OnCheckpoint / Flush.
  void LogAdd(const TemporalEdge& e) override;
  void LogRemove(NodeId u, NodeId v, EdgeTypeId r, Timestamp t) override;

  // CheckpointSink — called on the training thread at durable cuts.
  Status OnCheckpoint(SupaModel& model, const TrainerCursor& cursor) override;

  /// Drains the background writer (all enqueued links + compactions are
  /// durable on return) and syncs the WAL. Call before reading the
  /// manifest or declaring a run complete.
  Status Flush();

  /// Links currently in the manifest (after a Flush). For tests and the
  /// CLI's run summary.
  Result<Manifest> CurrentManifest() const;

  const DurabilityOptions& options() const { return options_; }

 private:
  DurabilityEngine(SupaModel& model, DurabilityOptions options);

  struct PendingLink {
    ManifestLink::Kind kind;
    TrainerCursor cursor;
    uint64_t adam_step = 0;
    // Exactly one of these is engaged, matching `kind`.
    std::optional<LogicalCheckpoint> base;
    std::optional<DeltaCapture> delta;
  };

  void WriterLoop();
  Status WriteLink(PendingLink link);
  Status Compact();
  void StashError(const Status& st);

  SupaModel& model_;
  const DurabilityOptions options_;
  std::unique_ptr<WalWriter> wal_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PendingLink> queue_;
  bool stop_ = false;
  size_t inflight_ = 0;  // links dequeued but not yet durable
  Status async_error_;
  // After Attach starts the writer thread, only that thread writes these,
  // under mu_. Other threads read them under mu_; the writer thread may
  // read them without it.
  Manifest manifest_;
  uint64_t next_link_id_ = 0;
  size_t deltas_since_base_ = 0;

  // Lock-free mirrors for the /statusz provider (providers must not take
  // application locks).
  std::atomic<uint64_t> stat_wal_records_{0};
  std::atomic<uint64_t> stat_wal_bytes_{0};
  std::atomic<uint64_t> stat_base_links_{0};
  std::atomic<uint64_t> stat_delta_links_{0};
  std::atomic<uint64_t> stat_chain_links_{0};
  std::atomic<uint64_t> stat_compactions_{0};
  std::atomic<double> stat_last_ckpt_seconds_{0.0};

  std::thread writer_;
  std::optional<obs::StatusScope> status_scope_;
};

}  // namespace supa::dur

#endif  // SUPA_DUR_ENGINE_H_
