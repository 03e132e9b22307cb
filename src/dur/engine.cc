#include "dur/engine.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

#include "core/model.h"
#include "dur/chain_reader.h"
#include "dur/fsio.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace supa::dur {
namespace {

std::string LinkFileName(uint64_t id, ManifestLink::Kind kind) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%016" PRIx64 ".%s", id,
                kind == ManifestLink::Kind::kBase ? "base" : "delta");
  return buf;
}

// True for a name LinkFileName can produce: ckpt-<16 hex>.{base,delta}.
bool IsLinkFileName(const std::string& name) {
  constexpr size_t kIdEnd = 5 + 16;  // "ckpt-" + id
  if (name.rfind("ckpt-", 0) != 0 || name.size() <= kIdEnd) return false;
  for (size_t i = 5; i < kIdEnd; ++i) {
    if (!std::isxdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  const std::string kind = name.substr(kIdEnd);
  return kind == ".base" || kind == ".delta";
}

// Deletes every checkpoint file in `dir` that `manifest` does not name and
// syncs the directory. Such a file is the partial output of a cut or a
// compaction killed mid-write, or a chain whose compaction was killed
// before it removed it; no manifest will ever name it. Returns the id past
// the highest one the manifest names, the next file id to use.
Result<uint64_t> RemoveUnlistedLinks(const std::string& dir,
                                     const Manifest& manifest) {
  std::set<std::string> listed;
  uint64_t next_id = 0;
  for (const ManifestLink& link : manifest.links) {
    listed.insert(link.file);
    if (IsLinkFileName(link.file)) {
      next_id = std::max<uint64_t>(
          next_id, std::stoull(link.file.substr(5, 16), nullptr, 16) + 1);
    }
  }
  std::vector<std::string> unlisted;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (IsLinkFileName(name) && listed.count(name) == 0) {
      unlisted.push_back(name);
    }
  }
  if (ec) return Status::IOError("listing " + dir + ": " + ec.message());
  if (unlisted.empty()) return next_id;
  for (const std::string& name : unlisted) {
    SUPA_LOG(WARNING) << "removing " << name << ", which " << dir
                      << "/MANIFEST does not name";
    SUPA_RETURN_NOT_OK(RemoveFileIfExists(dir + "/" + name));
  }
  SUPA_RETURN_NOT_OK(SyncDir(dir));
  return next_id;
}

size_t TrailingDeltas(const Manifest& manifest) {
  size_t n = 0;
  for (auto it = manifest.links.rbegin(); it != manifest.links.rend(); ++it) {
    if (it->kind != ManifestLink::Kind::kDelta) break;
    ++n;
  }
  return n;
}

}  // namespace

Result<std::unique_ptr<DurabilityEngine>> DurabilityEngine::Attach(
    SupaModel& model, DurabilityOptions options) {
  if (model.edge_log() != nullptr) {
    return Status::FailedPrecondition(
        "model already has an edge-log sink attached");
  }
  SUPA_RETURN_NOT_OK(EnsureDir(options.dir));

  std::unique_ptr<DurabilityEngine> engine(
      new DurabilityEngine(model, std::move(options)));

  auto loaded = LoadManifest(engine->options_.dir);
  if (loaded.ok()) {
    engine->manifest_ = std::move(loaded).value();
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }
  engine->deltas_since_base_ = TrailingDeltas(engine->manifest_);
  SUPA_ASSIGN_OR_RETURN(
      engine->next_link_id_,
      RemoveUnlistedLinks(engine->options_.dir, engine->manifest_));
  engine->stat_chain_links_.store(engine->manifest_.links.size(),
                                  std::memory_order_relaxed);

  // The WAL resumes after its valid prefix; a torn tail (crash before the
  // caller ran recovery, or records past the last durable cut) is cut off
  // here — those records belong to un-checkpointed work the resumed run
  // will regenerate.
  SUPA_ASSIGN_OR_RETURN(const WalReplay replay, ReadWal(engine->options_.dir));
  const uint64_t next_seq = replay.records.size();
  SUPA_RETURN_NOT_OK(TruncateWal(engine->options_.dir, next_seq));
  WalOptions wal_options;
  wal_options.sync = engine->options_.wal_sync;
  wal_options.segment_bytes = engine->options_.wal_segment_bytes;
  SUPA_ASSIGN_OR_RETURN(
      engine->wal_, WalWriter::Open(engine->options_.dir, wal_options,
                                    next_seq));
  engine->stat_wal_records_.store(next_seq, std::memory_order_relaxed);

  // Resolving every dur.* handle here also registers the series up front,
  // so scrapes that land before the first append / link see them at zero
  // instead of not at all.
  auto& reg = obs::MetricsRegistry::Global();
  engine->wal_appends_counter_ = reg.GetCounter("dur.wal_appends");
  engine->wal_syncs_counter_ = reg.GetCounter("dur.wal_syncs");
  engine->base_links_counter_ = reg.GetCounter("dur.ckpt_base_links");
  engine->delta_links_counter_ = reg.GetCounter("dur.ckpt_delta_links");
  engine->compactions_counter_ = reg.GetCounter("dur.compactions");
  engine->chain_length_gauge_ = reg.GetGauge("dur.chain_length");
  engine->chain_length_gauge_.Set(
      static_cast<double>(engine->manifest_.links.size()));
  engine->last_checkpoint_gauge_ = reg.GetGauge("dur.last_checkpoint_seconds");
  engine->dirty_rows_hist_ =
      reg.GetHistogram("dur.ckpt_dirty_rows",
                       obs::MetricsRegistry::ExponentialBounds(16, 4, 10));

  model.set_edge_log(engine.get());
  model.optimizer().set_checkpoint_tracking(true);
  // Dirty tracking starts *now*; whatever happened to the model before is
  // untracked, so the first link must be a full base.
  model.optimizer().MarkAllCheckpointDirty();

  engine->writer_ = std::thread([raw = engine.get()] { raw->WriterLoop(); });
  DurabilityEngine* raw = engine.get();
  engine->status_scope_.emplace("durability", [raw] {
    const auto u64 = [](uint64_t v) { return std::to_string(v); };
    std::vector<obs::StatusItem> items;
    items.push_back({"wal_records", u64(raw->stat_wal_records_.load(
                                        std::memory_order_relaxed))});
    items.push_back({"wal_bytes", u64(raw->stat_wal_bytes_.load(
                                      std::memory_order_relaxed))});
    items.push_back({"wal_sync", WalSyncName(raw->options_.wal_sync)});
    items.push_back({"base_links", u64(raw->stat_base_links_.load(
                                       std::memory_order_relaxed))});
    items.push_back({"delta_links", u64(raw->stat_delta_links_.load(
                                        std::memory_order_relaxed))});
    items.push_back({"chain_links", u64(raw->stat_chain_links_.load(
                                        std::memory_order_relaxed))});
    items.push_back({"compactions", u64(raw->stat_compactions_.load(
                                        std::memory_order_relaxed))});
    char secs[32];
    std::snprintf(secs, sizeof(secs), "%.6f",
                  raw->stat_last_ckpt_seconds_.load(
                      std::memory_order_relaxed));
    items.push_back({"last_checkpoint_seconds", secs});
    return items;
  });
  return engine;
}

DurabilityEngine::DurabilityEngine(SupaModel& model, DurabilityOptions options)
    : model_(model), options_(std::move(options)) {}

DurabilityEngine::~DurabilityEngine() {
  // Unregister the /statusz provider before tearing anything down.
  status_scope_.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (model_.edge_log() == this) model_.set_edge_log(nullptr);
  model_.optimizer().set_checkpoint_tracking(false);
  if (wal_ != nullptr) {
    const Status st = wal_->Close();
    if (!st.ok()) {
      SUPA_LOG(WARNING) << "WAL close failed: " << st.ToString();
    }
  }
}

void DurabilityEngine::StashError(const Status& st) {
  std::lock_guard<std::mutex> lock(mu_);
  if (async_error_.ok()) {
    SUPA_LOG(ERROR) << "durability error (surfaced at next checkpoint): "
                    << st.ToString();
    async_error_ = st;
  }
}

void DurabilityEngine::LogAdd(const TemporalEdge& e) {
  WalRecord record;
  record.type = WalRecord::kAddEdge;
  record.edge = e;
  const Status st = wal_->Append(record);
  if (!st.ok()) {
    StashError(st);
    return;
  }
  wal_appends_counter_.Increment();
  stat_wal_records_.fetch_add(1, std::memory_order_relaxed);
  stat_wal_bytes_.store(wal_->bytes_appended(), std::memory_order_relaxed);
}

void DurabilityEngine::LogRemove(NodeId u, NodeId v, EdgeTypeId r,
                                 Timestamp t) {
  WalRecord record;
  record.type = WalRecord::kRemoveEdge;
  record.edge = TemporalEdge{u, v, r, t};
  const Status st = wal_->Append(record);
  if (!st.ok()) {
    StashError(st);
    return;
  }
  wal_appends_counter_.Increment();
  stat_wal_records_.fetch_add(1, std::memory_order_relaxed);
  stat_wal_bytes_.store(wal_->bytes_appended(), std::memory_order_relaxed);
}

Status DurabilityEngine::OnCheckpoint(SupaModel& model,
                                      const TrainerCursor& cursor) {
  Timer timer;

  // A WAL append that failed asynchronously poisons the run: the log no
  // longer covers the state we are about to link.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!async_error_.ok()) return async_error_;
  }

  // The records this link depends on must be durable before the link can
  // be published (under kOff the user opted out of that guarantee).
  SUPA_RETURN_NOT_OK(wal_->Sync());
  wal_syncs_counter_.Increment();

  PendingLink link;
  link.cursor = cursor;
  link.cursor.wal_seq = wal_->next_seq();

  SparseAdam& adam = model.optimizer();
  bool need_base = adam.checkpoint_dirty_overflow();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_link_id_ == 0 && manifest_.links.empty() && queue_.empty() &&
        inflight_ == 0) {
      need_base = true;  // empty chain — nothing for a delta to patch
    }
  }
  if (need_base) {
    link.kind = ManifestLink::Kind::kBase;
    link.base = GatherLogicalState(model);
    link.adam_step = link.base->meta.adam_step;
  } else {
    link.kind = ManifestLink::Kind::kDelta;
    SUPA_ASSIGN_OR_RETURN(DeltaCapture delta, CaptureDirtyRows(model));
    dirty_rows_hist_.Observe(static_cast<double>(delta.num_rows()));
    link.adam_step = delta.adam_step;
    link.delta = std::move(delta);
  }
  adam.ClearCheckpointDirty();

  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(link));
  }
  cv_.notify_all();

  const double seconds = timer.ElapsedSeconds();
  last_checkpoint_gauge_.Set(seconds);
  stat_last_ckpt_seconds_.store(seconds, std::memory_order_relaxed);
  return Status::OK();
}

void DurabilityEngine::WriterLoop() {
  for (;;) {
    PendingLink link;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      link = std::move(queue_.front());
      queue_.erase(queue_.begin());
      inflight_ = 1;
    }
    const Status st = WriteLink(std::move(link));
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_ = 0;
      if (!st.ok() && async_error_.ok()) {
        SUPA_LOG(ERROR) << "checkpoint link write failed: " << st.ToString();
        async_error_ = st;
      }
    }
    cv_.notify_all();
  }
}

Status DurabilityEngine::WriteLink(PendingLink link) {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_link_id_++;
  }
  const std::string file = LinkFileName(id, link.kind);
  const std::string path = options_.dir + "/" + file;
  if (link.kind == ManifestLink::Kind::kBase) {
    SUPA_RETURN_NOT_OK(WriteBaseFile(path, *link.base));
  } else {
    SUPA_RETURN_NOT_OK(WriteDeltaFile(path, *link.delta));
  }
  SUPA_RETURN_NOT_OK(SyncDir(options_.dir));

  ManifestLink entry;
  entry.kind = link.kind;
  entry.file = file;
  entry.adam_step = link.adam_step;
  entry.wal_seq = link.cursor.wal_seq;
  entry.cursor = link.cursor;

  std::unique_lock<std::mutex> lock(mu_);
  manifest_.links.push_back(std::move(entry));
  SUPA_RETURN_NOT_OK(SaveManifest(options_.dir, manifest_));
  if (link.kind == ManifestLink::Kind::kBase) {
    deltas_since_base_ = 0;
    base_links_counter_.Increment();
    stat_base_links_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++deltas_since_base_;
    delta_links_counter_.Increment();
    stat_delta_links_.fetch_add(1, std::memory_order_relaxed);
  }
  stat_chain_links_.store(manifest_.links.size(), std::memory_order_relaxed);
  chain_length_gauge_.Set(static_cast<double>(manifest_.links.size()));

  if (deltas_since_base_ <= options_.compact_threshold) return Status::OK();
  lock.unlock();
  return Compact();
}

// Folds the whole chain into one fresh base (byte-identical to saving the
// newest link's state directly — pinned by dur_checkpoint_test) by
// streaming it through a ChainReader straight into the new file, so the
// merge holds two 1 MiB buffers, not a merged state. Runs on the writer
// thread, which alone changes manifest_, next_link_id_ and
// deltas_since_base_, so it reads them without mu_; it takes mu_ only to
// allocate the file id and to swap in the compacted manifest. A cut that
// lands during the merge enqueues without waiting; Flush still waits,
// because the link stays in flight until WriteLink returns.
Status DurabilityEngine::Compact() {
  if (manifest_.links.empty()) return Status::OK();

  SUPA_ASSIGN_OR_RETURN(
      ChainReader chain,
      OpenLinkChain(options_.dir, manifest_, manifest_.links.size() - 1));
  const ManifestLink& newest = manifest_.links.back();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_link_id_++;
  }
  const std::string file = LinkFileName(id, ManifestLink::Kind::kBase);
  SUPA_RETURN_NOT_OK(WriteChainAsBase(chain, options_.dir + "/" + file));
  SUPA_RETURN_NOT_OK(SyncDir(options_.dir));

  ManifestLink compacted;
  compacted.kind = ManifestLink::Kind::kBase;
  compacted.file = file;
  compacted.adam_step = newest.adam_step;
  compacted.wal_seq = newest.wal_seq;
  compacted.cursor = newest.cursor;

  std::vector<std::string> old_files;
  old_files.reserve(manifest_.links.size());
  for (const ManifestLink& l : manifest_.links) old_files.push_back(l.file);

  {
    std::lock_guard<std::mutex> lock(mu_);
    manifest_.links.clear();
    manifest_.links.push_back(std::move(compacted));
    SUPA_RETURN_NOT_OK(SaveManifest(options_.dir, manifest_));
    deltas_since_base_ = 0;
  }
  // Only after the new manifest is durable are the old files garbage.
  for (const std::string& old : old_files) {
    SUPA_RETURN_NOT_OK(RemoveFileIfExists(options_.dir + "/" + old));
  }
  compactions_counter_.Increment();
  stat_compactions_.fetch_add(1, std::memory_order_relaxed);
  stat_chain_links_.store(1, std::memory_order_relaxed);
  chain_length_gauge_.Set(1.0);
  return Status::OK();
}

Status DurabilityEngine::Flush() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return (!async_error_.ok()) || (queue_.empty() && inflight_ == 0);
    });
    if (!async_error_.ok()) return async_error_;
  }
  return wal_->Sync();
}

Result<Manifest> DurabilityEngine::CurrentManifest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!async_error_.ok()) return async_error_;
  return manifest_;
}

}  // namespace supa::dur
