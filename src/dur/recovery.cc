#include "dur/recovery.h"

#include "core/model.h"
#include "dur/checkpoint.h"
#include "dur/delta_writer.h"
#include "dur/fsio.h"
#include "dur/manifest.h"
#include "dur/wal.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace supa::dur {

Result<RecoveryReport> Recover(const std::string& dir, SupaModel* model) {
  Timer timer;
  if (model->edge_log() != nullptr) {
    return Status::FailedPrecondition(
        "detach the durability engine before recovering");
  }
  if (model->graph().num_edges() != 0) {
    return Status::FailedPrecondition(
        "recovery requires a freshly constructed model (graph not empty)");
  }

  auto loaded = LoadManifest(dir);
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      return Status::FailedPrecondition("no MANIFEST in " + dir +
                                        " — nothing to recover");
    }
    return loaded.status();
  }
  const Manifest manifest = std::move(loaded).value();
  if (manifest.links.empty()) {
    return Status::FailedPrecondition("empty manifest in " + dir);
  }

  SUPA_ASSIGN_OR_RETURN(const WalReplay replay, ReadWal(dir));
  const uint64_t valid_records = replay.records.size();

  // Newest link the WAL can support. The run's very first link has
  // wal_seq equal to however many records preceded it (0 on a fresh
  // directory), so under every/batch sync a covered link always exists; a
  // miss here means records were lost under --wal-sync off.
  size_t chosen = manifest.links.size();
  for (size_t i = manifest.links.size(); i-- > 0;) {
    if (manifest.links[i].wal_seq <= valid_records) {
      chosen = i;
      break;
    }
  }
  if (chosen == manifest.links.size()) {
    return Status::FailedPrecondition(
        "the WAL holds " + std::to_string(valid_records) +
        " valid records but every manifest link needs more — records were "
        "lost (was the WAL written with --wal-sync off?)");
  }
  const bool fallback = chosen + 1 != manifest.links.size();

  // Materialise the chosen link: last base at or before it, then deltas.
  size_t base_idx = chosen + 1;
  for (size_t i = chosen + 1; i-- > 0;) {
    if (manifest.links[i].kind == ManifestLink::Kind::kBase) {
      base_idx = i;
      break;
    }
  }
  if (base_idx == chosen + 1) {
    return Status::IOError("manifest link " + std::to_string(chosen) +
                           " has no base beneath it in " + dir);
  }
  SUPA_ASSIGN_OR_RETURN(
      LogicalCheckpoint state,
      ReadBaseFile(dir + "/" + manifest.links[base_idx].file));
  for (size_t i = base_idx + 1; i <= chosen; ++i) {
    SUPA_ASSIGN_OR_RETURN(const DeltaCapture delta,
                          ReadDeltaFile(dir + "/" + manifest.links[i].file));
    SUPA_RETURN_NOT_OK(ApplyDelta(delta, &state));
  }
  SUPA_RETURN_NOT_OK(ValidateMetaAgainstModel(state.meta, *model));

  // Everything is validated; the first write to the model happens here.
  const ManifestLink& link = manifest.links[chosen];
  model->LoadLogicalState(state.params.data(), state.m.data(),
                          state.v.data(), state.meta.adam_step);

  // The crashed run built its first (uniform) negative table lazily before
  // observing any edge; build it now, on the still-empty graph, so the
  // replayed observes hit the same rebuild cadence with the same counters.
  SUPA_RETURN_NOT_OK(model->RebuildNegativeTable());

  // Replay the graph history the checkpoint's state was trained on. The
  // replay consumes no RNG and touches no parameters — graph topology,
  // degrees, last-active timestamps and the periodic negative-table
  // rebuilds are reproduced exactly as the original commit order created
  // them.
  for (uint64_t s = 0; s < link.wal_seq; ++s) {
    const WalRecord& rec = replay.records[s];
    if (rec.type == WalRecord::kAddEdge) {
      SUPA_RETURN_NOT_OK(model->ObserveEdge(rec.edge));
    } else {
      SUPA_RETURN_NOT_OK(model->ReplayRemoveEdge(rec.edge.src, rec.edge.dst,
                                                 rec.edge.type));
    }
  }
  model->set_rng_state(link.cursor.model_rng);

  // Drop everything after the cut: WAL records the resumed run will
  // regenerate, and manifest links the WAL could not support.
  SUPA_RETURN_NOT_OK(TruncateWal(dir, link.wal_seq));
  if (fallback) {
    Manifest pruned;
    pruned.links.assign(manifest.links.begin(),
                        manifest.links.begin() + chosen + 1);
    SUPA_RETURN_NOT_OK(SaveManifest(dir, pruned));
    for (size_t i = chosen + 1; i < manifest.links.size(); ++i) {
      SUPA_RETURN_NOT_OK(RemoveFileIfExists(dir + "/" + manifest.links[i].file));
    }
  }

  RecoveryReport report;
  report.cursor = link.cursor;
  report.links_applied = chosen - base_idx + 1;
  report.wal_records_replayed = link.wal_seq;
  report.used_fallback_link = fallback;
  report.seconds = timer.ElapsedSeconds();
  obs::MetricsRegistry::Global()
      .GetGauge("dur.last_recovery_seconds")
      .Set(report.seconds);
  SUPA_LOG(INFO) << "recovered from " << dir << ": link " << chosen + 1 << "/"
                 << manifest.links.size() << " (adam step " << link.adam_step
                 << "), " << report.wal_records_replayed
                 << " WAL records replayed in " << report.seconds << "s";
  return report;
}

}  // namespace supa::dur
