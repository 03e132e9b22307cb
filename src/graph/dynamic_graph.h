// The dynamic multiplex heterogeneous graph substrate.
//
// Edges arrive in non-decreasing time order and are appended to per-node
// adjacency lists, so the *suffix* of a list is always a node's most recent
// neighborhood. A global neighbor cap η models the paper's resource-
// constrained setting (§IV-F, "only the latest η neighbors are available"),
// which induces the Neighborhood Disturbance phenomenon.
//
// Since the storage-engine refactor this class is a thin facade over the
// sharded store::GraphStore (DESIGN.md §11): the historical value-semantic
// API is preserved verbatim, while the adjacency itself lives in per-shard
// partitions behind write leases and epoch-snapshot reads. Code that needs
// the engine-level API (leases, snapshots, shard introspection) reaches it
// through store().

#ifndef SUPA_GRAPH_DYNAMIC_GRAPH_H_
#define SUPA_GRAPH_DYNAMIC_GRAPH_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/schema.h"
#include "graph/types.h"
#include "store/graph_store.h"
#include "store/store_options.h"
#include "util/status.h"

namespace supa {

/// An append-only temporal multiplex adjacency structure. Undirected:
/// AddEdge(u, v, r, t) makes v visible from u and u visible from v.
class DynamicGraph {
 public:
  /// Creates a graph over `node_types.size()` nodes whose types are given
  /// per node id. The schema provides |O| and |R|. The shard count comes
  /// from SUPA_SHARDS (default 1); facade-constructed stores do not
  /// export per-shard gauges (eval protocols churn through dozens of
  /// throwaway graphs — the trainer's store is the instrumented one).
  DynamicGraph(Schema schema, std::vector<NodeTypeId> node_types);

  /// As above with explicit engine options.
  DynamicGraph(Schema schema, std::vector<NodeTypeId> node_types,
               const store::StoreOptions& options);

  /// Wraps an existing engine (shared with the owner, e.g. SupaModel).
  /// Engine-first argument order keeps this overload out of the way of
  /// brace-initialized node-type lists.
  DynamicGraph(std::shared_ptr<store::GraphStore> store, Schema schema);

  // Value semantics are part of the historical contract (datasets hand
  // out graph prefixes by value): copying deep-copies the engine.
  DynamicGraph(const DynamicGraph& other);
  DynamicGraph& operator=(const DynamicGraph& other);
  DynamicGraph(DynamicGraph&&) noexcept = default;
  DynamicGraph& operator=(DynamicGraph&&) noexcept = default;

  /// Appends a temporal edge. Timestamps must be non-decreasing across
  /// calls; node ids must be in range and distinct.
  [[nodiscard]] Status AddEdge(NodeId u, NodeId v, EdgeTypeId r,
                               Timestamp t) {
    return store_->AddEdge(u, v, r, t);
  }

  /// Removes the most recent (u, v, r) edge from both adjacency lists
  /// (§III-A: the streaming setting deletes outdated edges). O(degree).
  /// Last-active timestamps are left untouched. Returns NotFound when the
  /// edge does not exist — callers must check, not assume.
  [[nodiscard]] Status RemoveEdge(NodeId u, NodeId v, EdgeTypeId r) {
    return store_->RemoveEdge(u, v, r);
  }

  /// All neighbors of `v` in arrival order (oldest first), ignoring the cap.
  std::span<const Neighbor> AllNeighbors(NodeId v) const {
    return store_->AllNeighbors(v);
  }

  /// The most recent neighbors of `v`, honoring the neighbor cap η when one
  /// is set (0 = unlimited). Oldest-first within the window.
  std::span<const Neighbor> Neighbors(NodeId v) const {
    return store_->Neighbors(v);
  }

  /// Sets the per-node neighbor cap η (0 = unlimited).
  void set_neighbor_cap(size_t eta) { store_->set_neighbor_cap(eta); }

  /// The active neighbor cap η.
  size_t neighbor_cap() const { return store_->neighbor_cap(); }

  /// Timestamp of the most recent interaction involving `v` (the paper's
  /// t'_v), or kNeverActive when the node has no edges yet.
  Timestamp LastActive(NodeId v) const { return store_->LastActive(v); }

  /// Overrides a node's last-active timestamp. Leases v's shard, so the
  /// caller must not hold a lease on it.
  void SetLastActive(NodeId v, Timestamp t) { store_->SetLastActive(v, t); }

  /// The node type φ(v).
  NodeTypeId NodeType(NodeId v) const { return store_->NodeType(v); }

  /// Per-node uncapped degree.
  size_t Degree(NodeId v) const { return store_->Degree(v); }

  /// |V|.
  size_t num_nodes() const { return store_->num_nodes(); }

  /// |E| (number of AddEdge calls).
  size_t num_edges() const { return store_->num_edges(); }

  /// Timestamp of the most recently added edge (or kNeverActive).
  Timestamp latest_time() const { return store_->latest_time(); }

  /// The type registry.
  const Schema& schema() const { return schema_; }

  /// All node ids with node type `t`.
  std::vector<NodeId> NodesOfType(NodeTypeId t) const {
    return store_->NodesOfType(t);
  }

  /// The storage engine behind this facade.
  store::GraphStore& store() { return *store_; }
  const store::GraphStore& store() const { return *store_; }
  const std::shared_ptr<store::GraphStore>& shared_store() const {
    return store_;
  }

  /// Number of shards backing this graph.
  size_t num_shards() const { return store_->num_shards(); }

 private:
  Schema schema_;
  std::shared_ptr<store::GraphStore> store_;
};

}  // namespace supa

#endif  // SUPA_GRAPH_DYNAMIC_GRAPH_H_
