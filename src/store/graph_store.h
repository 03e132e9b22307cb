// The sharded storage engine: per-shard adjacency + embedding banks
// behind write leases and epoch-snapshot reads.
//
// Ownership story (DESIGN.md §11):
//   - Nodes are placed on shards by NodeShardMap (stable hash of id).
//   - Each shard owns its nodes' adjacency lists, last-active timestamps,
//     and — when a bank is attached — their h^L/h^S/c^r embedding rows.
//   - Mutations happen under *write leases* (per-shard mutexes, always
//     acquired in ascending shard order). AddEdge / RemoveEdge /
//     SetLastActive lease the shards they touch internally; a trainer
//     that scatters embedding writes across the whole parameter buffer
//     takes LeaseAll() around each training step.
//   - A lease records what its holder changed (embedding rows, nodes) and
//     is declared complete once every write is recorded. An undeclared
//     lease marks its shards all-changed.
//   - Concurrent readers never touch the live structures: they call
//     AcquireSnapshot(), which publishes a copy-on-write epoch (changed
//     rows and node chunks copied under their shard's mutex, everything
//     else shared with the previous epoch) and hand back an immutable
//     StoreSnapshot.
//   - Live (unlocked) read accessors remain for the single-writer hot
//     path: the thread holding the write story may read its own state
//     freely. Any *other* thread must read through a snapshot.
//
// Determinism contract: the shard count decides only memory placement.
// Hash placement, lease scope, and snapshot publication never reorder
// computation or consume randomness, so results are bit-identical at any
// SUPA_SHARDS value.

#ifndef SUPA_STORE_GRAPH_STORE_H_
#define SUPA_STORE_GRAPH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "store/embedding_bank.h"
#include "store/shard_map.h"
#include "store/snapshot.h"
#include "store/store_options.h"
#include "util/rng.h"
#include "util/status.h"

namespace supa::store {

class GraphStore;

/// RAII exclusive write access to a set of shards. Locks are taken in
/// ascending shard order (deadlock-free against other leases and against
/// the snapshot publisher, which holds at most one shard at a time) and
/// each covered shard's version is bumped on release so the next publish
/// knows to look at it.
///
/// The lease also carries the change set the next publish copies. A
/// holder that records every row and node it writes and then calls
/// DeclareComplete() makes that publish copy just those; a lease released
/// undeclared marks every covered shard all-changed, so writers that
/// record nothing (restores, checkpoint loads, recovery) stay correct.
class ShardWriteLease {
 public:
  ShardWriteLease() = default;
  ShardWriteLease(ShardWriteLease&& other) noexcept
      : store_(other.store_), mask_(other.mask_), complete_(other.complete_) {
    other.store_ = nullptr;
    other.mask_ = 0;
    other.complete_ = false;
  }
  ShardWriteLease& operator=(ShardWriteLease&& other) noexcept {
    if (this != &other) {
      Release();
      store_ = other.store_;
      mask_ = other.mask_;
      complete_ = other.complete_;
      other.store_ = nullptr;
      other.mask_ = 0;
      other.complete_ = false;
    }
    return *this;
  }
  ShardWriteLease(const ShardWriteLease&) = delete;
  ShardWriteLease& operator=(const ShardWriteLease&) = delete;
  ~ShardWriteLease() { Release(); }

  /// Records a write to the embedding row starting at physical `offset`,
  /// which must lie on a leased shard. α-tail offsets are ignored: α is
  /// re-copied whenever shard 0 is.
  void RecordRow(size_t offset);

  /// Records a change to node `v`'s adjacency or last-active timestamp;
  /// `v` must live on a leased shard.
  void RecordNode(NodeId v);

  /// Declares that every write made under this lease has been recorded.
  void DeclareComplete() { complete_ = true; }

  /// Unlocks early (idempotent).
  void Release();

 private:
  friend class GraphStore;
  ShardWriteLease(GraphStore* store, uint64_t mask);

  /// Adopts already-held locks (TryLeaseMask's success path).
  struct AdoptTag {};
  ShardWriteLease(GraphStore* store, uint64_t mask, AdoptTag)
      : store_(store), mask_(mask) {}

  GraphStore* store_ = nullptr;
  uint64_t mask_ = 0;
  bool complete_ = false;
};

/// The engine. Owns the shard map, the per-shard adjacency, and (once
/// AttachEmbeddings is called) the embedding bank.
class GraphStore {
 public:
  /// Creates a store over `node_types.size()` nodes. `num_edge_types` is
  /// the |R| bound AddEdge validates against.
  GraphStore(size_t num_edge_types, std::vector<NodeTypeId> node_types,
             StoreOptions options = {});
  ~GraphStore();

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Deep copy (fresh mutexes/epochs, same placement and contents). Used
  /// by the DynamicGraph facade's value semantics.
  std::unique_ptr<GraphStore> Clone() const;

  /// Allocates the embedding bank over this store's shard map. Rows are
  /// initialized in logical order from `rng` (see EmbeddingBank).
  void AttachEmbeddings(size_t num_relations, size_t num_node_types, int dim,
                        double init_scale, Rng& rng);
  bool has_embeddings() const { return bank_ != nullptr; }
  EmbeddingBank& embeddings() { return *bank_; }
  const EmbeddingBank& embeddings() const { return *bank_; }
  const std::shared_ptr<EmbeddingBank>& shared_embeddings() const {
    return bank_;
  }

  // -- Mutations (lease internally) --

  /// Appends a temporal edge to both endpoint shards. Timestamps must be
  /// non-decreasing across calls; node ids must be in range and distinct.
  Status AddEdge(NodeId u, NodeId v, EdgeTypeId r, Timestamp t);

  /// Removes the most recent (u, v, r) edge from both adjacency lists.
  /// O(degree). Last-active timestamps are left untouched. Returns
  /// NotFound when no such edge exists.
  Status RemoveEdge(NodeId u, NodeId v, EdgeTypeId r);

  /// Overrides a node's last-active timestamp. Leases `v`'s shard, so the
  /// caller must not hold a lease on it.
  void SetLastActive(NodeId v, Timestamp t);

  // -- Write leases --
  ShardWriteLease LeaseAll();
  ShardWriteLease LeaseNodes(NodeId u, NodeId v);

  /// Blocking lease over an explicit shard set (bit s covers shard s).
  /// Ascending acquisition order; bits beyond num_shards() are ignored.
  /// This is the ingest dispatcher's mask-wait: it parks here until every
  /// shard a scheduled group touches is free.
  ShardWriteLease LeaseMask(uint64_t mask);

  /// All-or-nothing non-blocking variant: acquires every shard in `mask`
  /// via try_lock (ascending) or none. On success stores the lease in
  /// `*out` and returns true; on contention backs out the partial set
  /// WITHOUT bumping versions (nothing was written under it) and returns
  /// false.
  bool TryLeaseMask(uint64_t mask, ShardWriteLease* out);

  /// Mask with bit `shard_of(v)` set — footprint building block for the
  /// ingest scheduler.
  uint64_t ShardMaskOf(NodeId v) const {
    return uint64_t{1} << map_->shard_of(v);
  }
  /// Mask covering every shard of this store.
  uint64_t all_shards_mask() const;

  // -- Live reads (single-writer contract; see file comment) --
  std::span<const Neighbor> AllNeighbors(NodeId v) const {
    return shards_[map_->shard_of(v)]->adj[map_->local_of(v)];
  }
  std::span<const Neighbor> Neighbors(NodeId v) const {
    std::span<const Neighbor> list = AllNeighbors(v);
    const size_t cap = neighbor_cap_.load(std::memory_order_relaxed);
    if (cap == 0 || list.size() <= cap) return list;
    // Counts lookups that actually lost history to η — the precondition
    // for the Neighborhood Disturbance phenomenon (§IV-F).
    cap_hit_counter_.Increment();
    return list.subspan(list.size() - cap, cap);
  }
  size_t Degree(NodeId v) const { return AllNeighbors(v).size(); }
  Timestamp LastActive(NodeId v) const {
    return shards_[map_->shard_of(v)]->last_active[map_->local_of(v)];
  }
  NodeTypeId NodeType(NodeId v) const { return (*node_types_)[v]; }
  std::vector<NodeId> NodesOfType(NodeTypeId t) const;

  void set_neighbor_cap(size_t eta) {
    neighbor_cap_.store(eta, std::memory_order_relaxed);
  }
  size_t neighbor_cap() const {
    return neighbor_cap_.load(std::memory_order_relaxed);
  }

  size_t num_nodes() const { return node_types_->size(); }
  size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }
  Timestamp latest_time() const {
    return latest_time_.load(std::memory_order_relaxed);
  }
  size_t num_edge_types() const { return num_edge_types_; }
  size_t num_shards() const { return map_->num_shards(); }
  const NodeShardMap& shard_map() const { return *map_; }
  const std::shared_ptr<const std::vector<NodeTypeId>>& shared_node_types()
      const {
    return node_types_;
  }

  // -- Epoch snapshots --

  /// Publishes (or reuses) the current epoch and returns its read view.
  /// Thread-safe; concurrent with ingest, though each changed shard's
  /// copy holds that shard's mutex. Cost follows the change sets since
  /// the previous publish: per changed shard, its pointer tables plus the
  /// recorded rows and node chunks (every row and chunk when the shard is
  /// all-changed, or when its slabs outgrow kRebaseSlabFactor × its rows).
  std::shared_ptr<const StoreSnapshot> AcquireSnapshot();

  /// A shard's published slabs may hold this many times its row floats
  /// before a publish re-bases it onto one full slab; it bounds snapshot
  /// memory to about (1 + kRebaseSlabFactor) × the live bank.
  static constexpr size_t kRebaseSlabFactor = 2;

  /// Epoch of the most recent publish (0 = never published).
  uint64_t epoch() const {
    return epoch_counter_.load(std::memory_order_relaxed);
  }

  // -- Observability --

  /// Adjacency entries currently held by shard `s` (each edge contributes
  /// one entry to each endpoint's shard).
  size_t ShardEdgeSlots(size_t s) const {
    return shards_[s]->edge_slots.load(std::memory_order_relaxed);
  }
  /// Nodes placed on shard `s` (static once constructed).
  size_t ShardNodes(size_t s) const { return map_->shard_size(s); }
  /// Estimated resident bytes of shard `s`: adjacency entries +
  /// last-active array + owned embedding rows.
  size_t ShardBytesEstimate(size_t s) const;

  /// Re-exports the store.shard_* gauges from the current counters.
  /// Cheap (relaxed atomic reads + gauge stores); the trainer calls this
  /// at batch boundaries so Prometheus scrapes stay fresh without
  /// forcing a snapshot publish.
  void RefreshShardMetrics();

  /// Write-lease version of shard `s` (bumped on every lease release that
  /// covered it). The delta writer diffs these against the versions it saw
  /// at the previous checkpoint link to enumerate shards that could have
  /// changed — clean shards are skipped without scanning their rows.
  uint64_t ShardVersion(size_t s) const {
    return shards_[s]->version.load(std::memory_order_acquire);
  }
  /// All shard versions, index-aligned with shard ids.
  std::vector<uint64_t> ShardVersions() const {
    std::vector<uint64_t> out(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) out[s] = ShardVersion(s);
    return out;
  }

 private:
  friend class ShardWriteLease;

  /// One mark per index plus the number marked. The marks are sized at
  /// the shard's first publish; until then the shard is all-changed and
  /// records nothing.
  struct ChangeSet {
    std::vector<uint8_t> marked;
    size_t count = 0;

    void Insert(size_t i) {
      count += marked[i] == 0 ? 1 : 0;
      marked[i] = 1;
    }
    /// Calls fn(i) in ascending order for every i in [0, universe) when
    /// `all`, else for every marked i, and clears the set. One loop serves
    /// the full copy and the incremental one.
    template <typename Fn>
    void Drain(bool all, size_t universe, Fn&& fn) {
      marked.resize(universe, 0);
      for (size_t i = 0; i < universe; ++i) {
        if (all || marked[i] != 0) fn(i);
        marked[i] = 0;
      }
      count = 0;
    }
  };

  struct Shard {
    std::vector<std::vector<Neighbor>> adj;  // by local id
    std::vector<Timestamp> last_active;      // by local id
    mutable std::mutex mu;
    std::atomic<uint64_t> version{0};
    std::atomic<size_t> edge_slots{0};
    // Changes since the last publish, guarded by `mu`. While all_changed
    // is set the sets stay empty: the next publish copies everything.
    bool all_changed = true;
    ChangeSet rows;    // embedding rows (EmbeddingLayout row numbering)
    ChangeSet chunks;  // local id / kChunkNodes
  };

  /// Re-publishes shard `s` on top of its previous publish `prev` (null
  /// before the first) and resets its change set. Caller holds the shard
  /// mutex. Adds the bytes it copied to `*bytes`.
  std::shared_ptr<const ShardSnapshot> PublishShard(
      size_t s, const ShardSnapshot* prev, size_t* bytes);

  // Write helpers for the edge ops; each records what it changes on the
  // caller's lease.
  void AppendHalfEdge(ShardWriteLease& lease, NodeId from, const Neighbor& n);
  bool EraseLatestHalfEdge(ShardWriteLease& lease, NodeId from, NodeId to,
                           EdgeTypeId r);
  void WriteLastActive(ShardWriteLease& lease, NodeId v, Timestamp t);

  /// Records a blocked lease acquisition on shard `s`
  /// (store.lease_contention.<s>; metrics-publishing stores only).
  void CountLeaseContention(size_t s);

  size_t num_edge_types_;
  std::shared_ptr<const std::vector<NodeTypeId>> node_types_;
  std::shared_ptr<const NodeShardMap> map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<EmbeddingBank> bank_;
  StoreOptions options_;

  std::atomic<size_t> num_edges_{0};
  std::atomic<Timestamp> latest_time_{kNeverActive};
  std::atomic<size_t> neighbor_cap_{0};
  obs::Counter cap_hit_counter_;
  obs::Counter publish_bytes_counter_;
  obs::Counter publish_rebases_counter_;

  // Publish state: previous epoch's per-shard views and the versions they
  // captured, so clean shards are reused and changed ones build on them.
  mutable std::mutex publish_mu_;
  std::vector<std::shared_ptr<const ShardSnapshot>> published_;
  std::vector<uint64_t> published_version_;
  std::shared_ptr<const StoreSnapshot> last_snapshot_;
  std::atomic<uint64_t> epoch_counter_{0};  // written under publish_mu_

  std::vector<obs::Gauge> shard_edges_gauges_;
  std::vector<obs::Gauge> shard_nodes_gauges_;
  std::vector<obs::Gauge> shard_bytes_gauges_;
  std::vector<obs::Counter> lease_contention_counters_;
  std::optional<obs::StatusScope> status_scope_;
};

}  // namespace supa::store

#endif  // SUPA_STORE_GRAPH_STORE_H_
