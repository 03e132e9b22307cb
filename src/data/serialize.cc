#include "data/serialize.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/tsv.h"

namespace supa {
namespace {

constexpr char kMagic[] = "supa-dataset v1";

/// The one value of a `key<TAB>value` header line.
Result<std::string_view> HeaderValue(const std::vector<std::string>& fields) {
  if (fields.size() != 2) {
    return Status::InvalidArgument("header " + fields[0] + " needs one value");
  }
  return std::string_view(fields[1]);
}

}  // namespace

Status SaveDataset(const Dataset& data, const std::string& path) {
  SUPA_RETURN_NOT_OK(data.Validate());
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");

  // Full round-trip precision for timestamps.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);

  out << kMagic << "\n";
  out << "name\t" << data.name << "\n";

  out << "node_types";
  for (NodeTypeId t = 0; t < data.schema.num_node_types(); ++t) {
    out << "\t" << data.schema.NodeTypeName(t);
  }
  out << "\n";
  out << "edge_types";
  for (EdgeTypeId r = 0; r < data.schema.num_edge_types(); ++r) {
    out << "\t" << data.schema.EdgeTypeName(r);
  }
  out << "\n";

  // Node universe as run-length (type, count) pairs in id order.
  out << "node_runs";
  size_t i = 0;
  while (i < data.node_types.size()) {
    size_t j = i;
    while (j < data.node_types.size() &&
           data.node_types[j] == data.node_types[i]) {
      ++j;
    }
    out << "\t" << data.node_types[i] << ":" << (j - i);
    i = j;
  }
  out << "\n";

  out << "query_type\t" << data.query_type << "\n";
  out << "target_type\t" << data.target_type << "\n";
  out << "target_relations";
  for (EdgeTypeId r : data.target_relations) out << "\t" << r;
  out << "\n";

  for (const auto& mp : data.metapaths) {
    out << "metapath\t" << mp.ToString(data.schema) << "\n";
  }

  out << "edges\t" << data.edges.size() << "\n";
  for (const auto& e : data.edges) {
    out << e.src << "\t" << e.dst << "\t" << e.type << "\t" << e.time
        << "\n";
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Status::InvalidArgument(path + " is not a supa dataset file");
  }

  Dataset data;
  uint64_t expected_edges = 0;
  bool in_edges = false;
  while (std::getline(in, line)) {
    if (in_edges) {
      SUPA_ASSIGN_OR_RETURN(TemporalEdge e,
                            ParseEdgeRow(SplitString(line, '\t')));
      data.edges.push_back(e);
      continue;
    }
    const auto fields = SplitString(line, '\t');
    if (fields.empty()) continue;
    const std::string& key = fields[0];
    if (key == "name") {
      if (fields.size() >= 2) data.name = fields[1];
    } else if (key == "node_types") {
      for (size_t f = 1; f < fields.size(); ++f) {
        data.schema.AddNodeType(fields[f]);
      }
    } else if (key == "edge_types") {
      for (size_t f = 1; f < fields.size(); ++f) {
        data.schema.AddEdgeType(fields[f]);
      }
    } else if (key == "node_runs") {
      for (size_t f = 1; f < fields.size(); ++f) {
        const auto parts = SplitString(fields[f], ':');
        if (parts.size() != 2) {
          return Status::InvalidArgument("bad node run: " + fields[f]);
        }
        SUPA_ASSIGN_OR_RETURN(NodeTypeId type, ParseId<NodeTypeId>(parts[0]));
        SUPA_ASSIGN_OR_RETURN(uint64_t count, ParseUint(parts[1]));
        // Node ids must stay below kInvalidNode.
        if (count > kInvalidNode - data.node_types.size()) {
          return Status::InvalidArgument("node runs exceed the NodeId range");
        }
        data.node_types.insert(data.node_types.end(), count, type);
      }
    } else if (key == "query_type") {
      SUPA_ASSIGN_OR_RETURN(std::string_view value, HeaderValue(fields));
      SUPA_ASSIGN_OR_RETURN(data.query_type, ParseId<NodeTypeId>(value));
    } else if (key == "target_type") {
      SUPA_ASSIGN_OR_RETURN(std::string_view value, HeaderValue(fields));
      SUPA_ASSIGN_OR_RETURN(data.target_type, ParseId<NodeTypeId>(value));
    } else if (key == "target_relations") {
      for (size_t f = 1; f < fields.size(); ++f) {
        SUPA_ASSIGN_OR_RETURN(EdgeTypeId r, ParseId<EdgeTypeId>(fields[f]));
        data.target_relations.push_back(r);
      }
    } else if (key == "metapath") {
      if (fields.size() < 2) {
        return Status::InvalidArgument("empty metapath line");
      }
      SUPA_ASSIGN_OR_RETURN(MetapathSchema mp,
                            MetapathSchema::Parse(fields[1], data.schema));
      data.metapaths.push_back(std::move(mp));
    } else if (key == "edges") {
      // The count is only checked against the rows that follow: a hostile
      // count must not size an allocation.
      SUPA_ASSIGN_OR_RETURN(std::string_view value, HeaderValue(fields));
      SUPA_ASSIGN_OR_RETURN(expected_edges, ParseUint(value));
      in_edges = true;
    } else {
      return Status::InvalidArgument("unknown header key: " + key);
    }
  }
  if (data.edges.size() != expected_edges) {
    return Status::InvalidArgument("edge count mismatch (truncated file?)");
  }
  SUPA_RETURN_NOT_OK(data.Validate());
  return data;
}

}  // namespace supa
