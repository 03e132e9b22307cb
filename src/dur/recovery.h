// Exact crash recovery (DESIGN.md §16).
//
// Recover() rebuilds a kill -9'd trainer bit-identically from its
// durability directory in three phases. Verify: it picks the newest
// manifest link whose wal_seq is covered by the valid WAL prefix, opens
// that link's chain (base + deltas) through dur::ChainReader, and streams
// it once to check every CRC, the layout and the link's Adam step — the
// model is untouched. Load: a second stream scatters the chain into the
// model chunk by chunk, so no whole-state copy exists beside it. Replay: it
// rebuilds the graph by replaying WAL records [0, wal_seq) — inserts
// through ObserveEdge, removals through ReplayRemoveEdge — restores the
// model RNG from the link's cursor, and truncates the WAL's unreachable
// suffix. The returned cursor feeds
// InsLearnTrainer::Train(..., resume), which regenerates everything after
// the cut record-for-record; the resumed run's parameters, eval metrics,
// and next checkpoint bytes equal the uninterrupted run's (pinned by
// dur_recovery_test and the CI crash-recovery smoke job).

#ifndef SUPA_DUR_RECOVERY_H_
#define SUPA_DUR_RECOVERY_H_

#include <cstdint>
#include <string>

#include "core/durability.h"
#include "util/status.h"

namespace supa {
class SupaModel;
}  // namespace supa

namespace supa::dur {

struct RecoveryReport {
  /// Resume point for InsLearnTrainer::Train.
  TrainerCursor cursor;
  /// Manifest links streamed into the model (1 base + its deltas).
  uint64_t links_applied = 0;
  /// WAL records replayed into the graph.
  uint64_t wal_records_replayed = 0;
  /// True when the newest link wasn't covered by the WAL (possible only
  /// under --wal-sync off) and an older link was used instead.
  bool used_fallback_link = false;
  /// Wall-clock recovery time (also exported as dur.last_recovery_seconds).
  double seconds = 0.0;
  /// The phases, each also a gauge (dur.recover.<phase>_seconds) and a
  /// trace span (recover/<phase>). Verify: the manifest, the WAL scan, and
  /// the first stream of the chain with every check. Load: the second
  /// stream, into the model. Replay: the graph rebuild from the WAL, and
  /// the truncation of what follows the cut.
  double verify_seconds = 0.0;
  double load_seconds = 0.0;
  double replay_seconds = 0.0;
};

/// Recovers `model` from `dir`. The model must be freshly constructed for
/// the same dataset and SupaConfig as the crashed run (same seed included)
/// and must not have observed any edges or have an edge log attached.
/// Every check fails before the model is touched, with one exception: a
/// checkpoint file that changes between the verify and load passes fails
/// the load pass with an IOError and leaves the model partly written, so
/// a caller discards the model on any failure. After Recover, attach a
/// DurabilityEngine to `dir` and resume training with the returned
/// cursor.
Result<RecoveryReport> Recover(const std::string& dir, SupaModel* model);

}  // namespace supa::dur

#endif  // SUPA_DUR_RECOVERY_H_
