// Stable node-id → shard placement.
//
// Placement must be a pure function of the node id (not arrival order, not
// degree) so that two stores built over the same node set agree on where
// every row lives — the property that makes checkpoints, delta
// checkpoints, and future multi-node layouts portable across shard counts. We hash with
// the same SplitMix64 mix the deterministic-parallelism layer uses, under
// a fixed seed that is part of the on-disk compatibility story.

#ifndef SUPA_STORE_SHARD_MAP_H_
#define SUPA_STORE_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace supa::store {

/// Maps each node id to (shard, local id). Local ids are dense per shard
/// and assigned in ascending node-id order, so with a single shard the
/// map is the identity — the seed layout falls out as the S=1 special
/// case. Immutable after construction; shared by the live store and every
/// snapshot it publishes.
class NodeShardMap {
 public:
  NodeShardMap(size_t num_nodes, size_t num_shards);

  size_t num_nodes() const { return shard_of_.size(); }
  size_t num_shards() const { return shard_sizes_.size(); }

  /// The shard owning node `v`.
  uint32_t shard_of(NodeId v) const { return shard_of_[v]; }

  /// `v`'s dense index within its shard.
  uint32_t local_of(NodeId v) const { return local_of_[v]; }

  /// Number of nodes placed on shard `s`.
  size_t shard_size(size_t s) const { return shard_sizes_[s]; }

  /// The node ids on shard `s`, ascending.
  const std::vector<NodeId>& shard_nodes(size_t s) const {
    return shard_nodes_[s];
  }

 private:
  std::vector<uint32_t> shard_of_;
  std::vector<uint32_t> local_of_;
  std::vector<size_t> shard_sizes_;
  std::vector<std::vector<NodeId>> shard_nodes_;
};

}  // namespace supa::store

#endif  // SUPA_STORE_SHARD_MAP_H_
