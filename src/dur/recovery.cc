#include "dur/recovery.h"

#include <optional>
#include <string>

#include "core/model.h"
#include "dur/chain_reader.h"
#include "dur/fsio.h"
#include "dur/manifest.h"
#include "dur/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace supa::dur {
namespace {

/// What the verify phase hands on: the manifest, the valid WAL prefix, the
/// chosen link and its chain, opened and read through once.
struct Verified {
  Manifest manifest;
  WalReplay replay;
  size_t chosen;
  ChainReader chain;
};

/// Reads and checks everything recovery needs; touches no model state.
Result<Verified> VerifyPhase(const std::string& dir, const SupaModel& model) {
  auto loaded = LoadManifest(dir);
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      return Status::FailedPrecondition("no MANIFEST in " + dir +
                                        " — nothing to recover");
    }
    return loaded.status();
  }
  Manifest manifest = std::move(loaded).value();
  if (manifest.links.empty()) {
    return Status::FailedPrecondition("empty manifest in " + dir);
  }

  SUPA_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(dir));
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

  // The chosen link's chain: the last base at or before it, then deltas.
  // Opening it checks every header and table and the link's Adam step;
  // the first pass reads every byte and checks every CRC.
  SUPA_ASSIGN_OR_RETURN(ChainReader chain,
                        OpenLinkChain(dir, manifest, chosen));
  SUPA_RETURN_NOT_OK(VerifyChainFor(chain, model));
  return Verified{std::move(manifest), std::move(replay), chosen,
                  std::move(chain)};
}

/// Rebuilds the graph and the RNG from the WAL, then drops everything
/// after the cut.
Status ReplayPhase(const std::string& dir, const Verified& v,
                   SupaModel* model) {
  const ManifestLink& link = v.manifest.links[v.chosen];
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
    const WalRecord& rec = v.replay.records[s];
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
  if (v.chosen + 1 != v.manifest.links.size()) {
    Manifest pruned;
    pruned.links.assign(v.manifest.links.begin(),
                        v.manifest.links.begin() + v.chosen + 1);
    SUPA_RETURN_NOT_OK(SaveManifest(dir, pruned));
    for (size_t i = v.chosen + 1; i < v.manifest.links.size(); ++i) {
      SUPA_RETURN_NOT_OK(
          RemoveFileIfExists(dir + "/" + v.manifest.links[i].file));
    }
  }
  return Status::OK();
}

/// Ends a phase: its time goes to the report and to the gauge
/// `dur.recover.<name>_seconds`.
void EndPhase(const char* name, const Timer& timer, double* seconds) {
  *seconds = timer.ElapsedSeconds();
  obs::MetricsRegistry::Global()
      .GetGauge(std::string("dur.recover.") + name + "_seconds")
      .Set(*seconds);
}

}  // namespace

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

  RecoveryReport report;
  std::optional<Verified> v;
  {
    SUPA_TRACE_SPAN_CAT("recover/verify", "dur");
    Timer phase;
    SUPA_ASSIGN_OR_RETURN(v, VerifyPhase(dir, *model));
    EndPhase("verify", phase, &report.verify_seconds);
  }
  // Everything is checked; the first write to the model happens here.
  {
    SUPA_TRACE_SPAN_CAT("recover/load", "dur");
    Timer phase;
    SUPA_RETURN_NOT_OK(LoadChainInto(v->chain, model));
    EndPhase("load", phase, &report.load_seconds);
  }
  {
    SUPA_TRACE_SPAN_CAT("recover/replay", "dur");
    Timer phase;
    SUPA_RETURN_NOT_OK(ReplayPhase(dir, *v, model));
    EndPhase("replay", phase, &report.replay_seconds);
  }

  const std::vector<ManifestLink>& links = v->manifest.links;
  const ManifestLink& link = links[v->chosen];
  report.cursor = link.cursor;
  for (size_t i = v->chosen + 1; i-- > 0;) {
    ++report.links_applied;
    if (links[i].kind == ManifestLink::Kind::kBase) break;
  }
  report.wal_records_replayed = link.wal_seq;
  report.used_fallback_link = v->chosen + 1 != links.size();
  report.seconds = timer.ElapsedSeconds();
  obs::MetricsRegistry::Global()
      .GetGauge("dur.last_recovery_seconds")
      .Set(report.seconds);
  SUPA_LOG(INFO) << "recovered from " << dir << ": link " << v->chosen + 1
                 << "/" << links.size() << " (adam step " << link.adam_step
                 << "), " << report.wal_records_replayed
                 << " WAL records replayed in " << report.seconds
                 << "s (verify " << report.verify_seconds << "s, load "
                 << report.load_seconds << "s, replay "
                 << report.replay_seconds << "s)";
  return report;
}

}  // namespace supa::dur
