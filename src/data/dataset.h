// In-memory interaction datasets: a time-sorted stream of typed edges over
// a typed node universe, plus the recommendation roles (query/target node
// types) and the predefined metapath schema set (Table IV).

#ifndef SUPA_DATA_DATASET_H_
#define SUPA_DATA_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/metapath.h"
#include "graph/schema.h"
#include "graph/types.h"
#include "store/graph_store.h"
#include "util/status.h"

namespace supa {

/// A complete dataset. `edges` is sorted by non-decreasing time; the
/// recommendation task predicts the `dst` of edges whose type is in
/// `target_relations`, ranking candidates among nodes of `target_type`.
struct Dataset {
  std::string name;
  Schema schema;
  /// node id -> node type; |V| = node_types.size().
  std::vector<NodeTypeId> node_types;
  /// time-sorted interaction stream.
  std::vector<TemporalEdge> edges;
  /// predefined multiplex metapath schema set (already symmetric).
  std::vector<MetapathSchema> metapaths;
  /// "user"-side node type of the recommendation task.
  NodeTypeId query_type = 0;
  /// "item"-side node type (may equal query_type for homogeneous data).
  NodeTypeId target_type = 0;
  /// edge types that constitute user->item recommendations.
  std::vector<EdgeTypeId> target_relations;

  /// |V|.
  size_t num_nodes() const { return node_types.size(); }

  /// |E|.
  size_t num_edges() const { return edges.size(); }

  /// Node ids of the target (item) type, i.e., the ranking candidates.
  std::vector<NodeId> TargetNodes() const;

  /// Number of distinct timestamps |T|.
  size_t NumDistinctTimestamps() const;

  /// True iff `r` is one of the recommendation relations.
  bool IsTargetRelation(EdgeTypeId r) const;

  /// Structural sanity checks: ids in range, time-sorted edges, non-empty
  /// schema, metapath types valid.
  Status Validate() const;

  /// Builds a graph store over the given edge index range [begin, end),
  /// with default StoreOptions.
  Result<std::unique_ptr<store::GraphStore>> BuildGraphRange(
      size_t begin, size_t end) const;
};

/// Parses one `src, dst, type, time` edge row, the format of both dataset
/// loaders. InvalidArgument unless there are four fields, the ids fit
/// NodeId and EdgeTypeId, and the time is finite.
Result<TemporalEdge> ParseEdgeRow(const std::vector<std::string>& fields);

/// Serializes a dataset's edge stream to TSV: src, dst, type, time.
Status SaveEdgesTsv(const Dataset& data, const std::string& path);

/// Loads an edge stream previously written by SaveEdgesTsv into `data`
/// (schema/node_types must already be populated). Edges are sorted by time.
/// `data->edges` changes only when every row parses.
Status LoadEdgesTsv(const std::string& path, Dataset* data);

}  // namespace supa

#endif  // SUPA_DATA_DATASET_H_
