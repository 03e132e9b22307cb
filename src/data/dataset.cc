#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/tsv.h"

namespace supa {

std::vector<NodeId> Dataset::TargetNodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_types.size(); ++v) {
    if (node_types[v] == target_type) out.push_back(v);
  }
  return out;
}

size_t Dataset::NumDistinctTimestamps() const {
  std::unordered_set<Timestamp> distinct;
  distinct.reserve(edges.size());
  for (const auto& e : edges) distinct.insert(e.time);
  return distinct.size();
}

bool Dataset::IsTargetRelation(EdgeTypeId r) const {
  return std::find(target_relations.begin(), target_relations.end(), r) !=
         target_relations.end();
}

Status Dataset::Validate() const {
  if (schema.num_node_types() == 0 || schema.num_edge_types() == 0) {
    return Status::FailedPrecondition("dataset '" + name + "' has no types");
  }
  if (node_types.empty()) {
    return Status::FailedPrecondition("dataset '" + name + "' has no nodes");
  }
  for (NodeTypeId t : node_types) {
    if (t >= schema.num_node_types()) {
      return Status::OutOfRange("node type id out of range");
    }
  }
  Timestamp prev = kNeverActive;
  for (const auto& e : edges) {
    if (e.src >= num_nodes() || e.dst >= num_nodes()) {
      return Status::OutOfRange("edge endpoint out of range");
    }
    if (e.type >= schema.num_edge_types()) {
      return Status::OutOfRange("edge type out of range");
    }
    if (!std::isfinite(e.time)) {
      return Status::InvalidArgument("edge time is not finite");
    }
    if (e.time < prev) {
      return Status::FailedPrecondition("edges not sorted by time");
    }
    prev = e.time;
  }
  if (query_type >= schema.num_node_types() ||
      target_type >= schema.num_node_types()) {
    return Status::OutOfRange("query/target node type out of range");
  }
  for (const auto& mp : metapaths) {
    if (mp.head() >= schema.num_node_types()) {
      return Status::OutOfRange("metapath head type out of range");
    }
    for (const auto& step : mp.steps()) {
      if (step.dst_type >= schema.num_node_types()) {
        return Status::OutOfRange("metapath step type out of range");
      }
      if (step.edge_types == 0) {
        return Status::InvalidArgument("metapath step with empty type set");
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<store::GraphStore>> Dataset::BuildGraphRange(
    size_t begin, size_t end) const {
  if (begin > end || end > edges.size()) {
    return Status::OutOfRange("bad edge range");
  }
  auto graph =
      std::make_unique<store::GraphStore>(schema.num_edge_types(), node_types);
  for (size_t i = begin; i < end; ++i) {
    const auto& e = edges[i];
    SUPA_RETURN_NOT_OK(graph->AddEdge(e.src, e.dst, e.type, e.time));
  }
  return graph;
}

Status SaveEdgesTsv(const Dataset& data, const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(data.edges.size());
  for (const auto& e : data.edges) {
    rows.push_back({std::to_string(e.src), std::to_string(e.dst),
                    std::to_string(e.type), std::to_string(e.time)});
  }
  return WriteTsv(path, rows);
}

Result<TemporalEdge> ParseEdgeRow(const std::vector<std::string>& fields) {
  if (fields.size() != 4) {
    return Status::InvalidArgument("edge rows need 4 fields");
  }
  TemporalEdge e;
  SUPA_ASSIGN_OR_RETURN(e.src, ParseId<NodeId>(fields[0]));
  SUPA_ASSIGN_OR_RETURN(e.dst, ParseId<NodeId>(fields[1]));
  SUPA_ASSIGN_OR_RETURN(e.type, ParseId<EdgeTypeId>(fields[2]));
  SUPA_ASSIGN_OR_RETURN(e.time, ParseDouble(fields[3]));
  // A NaN would also break the strict weak ordering the sorts rely on.
  if (!std::isfinite(e.time)) {
    return Status::InvalidArgument("edge time is not finite: " + fields[3]);
  }
  return e;
}

Status LoadEdgesTsv(const std::string& path, Dataset* data) {
  SUPA_ASSIGN_OR_RETURN(TsvTable table, ReadTsv(path));
  std::vector<TemporalEdge> edges;
  edges.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    SUPA_ASSIGN_OR_RETURN(TemporalEdge e, ParseEdgeRow(row));
    edges.push_back(e);
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });
  data->edges = std::move(edges);
  return Status::OK();
}

}  // namespace supa
