// Epoch-based immutable read view over the sharded store.
//
// A StoreSnapshot is a consistent point-in-time view of every shard's
// adjacency, last-active timestamps, and embedding rows. Publication costs
// what changed since the previous epoch, not the size of the store:
//
//   * Shards untouched since the previous publish are shared (same
//     ShardSnapshot object), so a quiescent store publishes for free.
//   * Within a changed shard, adjacency and last-active live in fixed
//     chunks of kChunkNodes local ids shared by shared_ptr; only chunks
//     whose nodes changed are re-copied.
//   * Embedding rows are reached through one pointer per row into
//     immutable, reference-counted slabs. A publish copies the previous
//     pointer table plus the rows written since, packed into one new slab.
//
// Readers (scrapes, evaluation, serving) hold a
// shared_ptr<const StoreSnapshot> and never contend with ingest;
// reclamation is reference counting — when the last reader of an old
// epoch drops its pointer, the chunks and slabs only that epoch
// referenced are freed.

#ifndef SUPA_STORE_SNAPSHOT_H_
#define SUPA_STORE_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/types.h"
#include "store/embedding_bank.h"
#include "store/shard_map.h"

namespace supa::store {

/// Local ids per adjacency chunk: the unit a publish re-copies when a
/// node gains or loses an edge or its last-active timestamp changes.
inline constexpr size_t kChunkNodes = 32;

/// Adjacency lists and last-active timestamps of kChunkNodes consecutive
/// local ids (a shard's last chunk may be partly unused), the lists packed
/// into one array: node i's list is neighbors[begin[i], begin[i + 1]).
/// Immutable once published.
struct NodeChunk {
  std::array<uint32_t, kChunkNodes + 1> begin{};
  std::array<Timestamp, kChunkNodes> last_active{};
  std::vector<Neighbor> neighbors;

  std::span<const Neighbor> adj(size_t i) const {
    return {neighbors.data() + begin[i], begin[i + 1] - begin[i]};
  }
};

/// One shard's frozen state. Immutable once published; shared across
/// consecutive StoreSnapshots while the shard stays clean.
struct ShardSnapshot {
  uint64_t version = 0;
  /// By local id / kChunkNodes.
  std::vector<std::shared_ptr<const NodeChunk>> chunks;
  /// One pointer per embedding row (EmbeddingLayout row numbering) into
  /// `slabs`; empty when the store has no embeddings attached.
  std::vector<const float*> rows;
  /// The row blocks `rows` points into, and their total floats.
  std::vector<std::shared_ptr<const float[]>> slabs;
  size_t slab_floats = 0;
};

/// The cross-shard consistent view. Mirrors the live read API of
/// GraphStore / EmbeddingBank, but every accessor resolves into frozen
/// chunks and slabs. Thread-safe by immutability.
class StoreSnapshot {
 public:
  // -- Graph reads --
  std::span<const Neighbor> AllNeighbors(NodeId v) const {
    const uint32_t local = map_->local_of(v);
    return Chunk(v, local).adj(local % kChunkNodes);
  }

  /// Most recent neighbors honoring the neighbor cap η captured at
  /// publish time (0 = unlimited). Unlike the live accessor this does not
  /// bump the cap-hit counter: snapshot reads are observational and must
  /// not perturb training telemetry.
  std::span<const Neighbor> Neighbors(NodeId v) const {
    std::span<const Neighbor> list = AllNeighbors(v);
    if (neighbor_cap_ == 0 || list.size() <= neighbor_cap_) return list;
    return list.subspan(list.size() - neighbor_cap_, neighbor_cap_);
  }

  size_t Degree(NodeId v) const { return AllNeighbors(v).size(); }
  Timestamp LastActive(NodeId v) const {
    const uint32_t local = map_->local_of(v);
    return Chunk(v, local).last_active[local % kChunkNodes];
  }
  NodeTypeId NodeType(NodeId v) const { return (*node_types_)[v]; }

  // -- Embedding reads (valid only when has_embeddings()) --
  const float* LongMem(NodeId v) const {
    return shards_[map_->shard_of(v)]->rows[layout_->LongMemRow(v)];
  }
  const float* ShortMem(NodeId v) const {
    return shards_[map_->shard_of(v)]->rows[layout_->ShortMemRow(v)];
  }
  const float* Context(NodeId v, EdgeTypeId r) const {
    return shards_[map_->shard_of(v)]->rows[layout_->ContextRow(v, r)];
  }
  const float* Alpha(NodeTypeId o) const { return alpha_->data() + o; }

  bool has_embeddings() const { return layout_ != nullptr; }
  int dim() const { return layout_->dim(); }
  size_t num_relations() const { return layout_->num_relations(); }
  size_t num_node_types() const { return layout_->num_node_types(); }

  // -- Metadata frozen at publish --
  uint64_t epoch() const { return epoch_; }
  size_t num_nodes() const { return map_->num_nodes(); }
  size_t num_shards() const { return map_->num_shards(); }
  size_t num_edges() const { return num_edges_; }
  Timestamp latest_time() const { return latest_time_; }
  size_t neighbor_cap() const { return neighbor_cap_; }
  const NodeShardMap& shard_map() const { return *map_; }
  const ShardSnapshot& shard(size_t s) const { return *shards_[s]; }

 private:
  friend class GraphStore;
  StoreSnapshot() = default;

  const NodeChunk& Chunk(NodeId v, uint32_t local) const {
    return *shards_[map_->shard_of(v)]->chunks[local / kChunkNodes];
  }

  std::shared_ptr<const NodeShardMap> map_;
  std::shared_ptr<const EmbeddingLayout> layout_;  // null without a bank
  std::shared_ptr<const std::vector<NodeTypeId>> node_types_;
  std::vector<std::shared_ptr<const ShardSnapshot>> shards_;
  std::shared_ptr<const std::vector<float>> alpha_;
  uint64_t epoch_ = 0;
  size_t num_edges_ = 0;
  Timestamp latest_time_ = kNeverActive;
  size_t neighbor_cap_ = 0;
};

}  // namespace supa::store

#endif  // SUPA_STORE_SNAPSHOT_H_
