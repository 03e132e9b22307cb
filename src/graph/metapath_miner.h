// Automatic mining of multiplex metapath schemas — the paper's stated
// future work ("compute the set of multiplex metapath schemas
// automatically", §VI).
//
// Approach: sample uniform random walks, bucket the observed length-3
// (two-hop) type sequences by their node-type skeleton, union the edge
// types seen per hop above a support threshold into multiplex edge-type
// sets, and return the most frequent symmetric schemas. Two-hop symmetric
// schemas (A -R-> B -R'-> A) are exactly the shape of every schema the
// paper hand-picks in Table IV.

#ifndef SUPA_GRAPH_METAPATH_MINER_H_
#define SUPA_GRAPH_METAPATH_MINER_H_

#include <vector>

#include "graph/metapath.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace supa {

/// Miner parameters.
struct MinerConfig {
  /// Uniform walks sampled across the graph.
  size_t num_walks = 4000;
  /// Maximum schemas returned (most frequent first).
  size_t max_schemas = 6;
  /// An edge type joins a hop's set when it carries at least this
  /// fraction of the hop's observations within the skeleton.
  double edge_support = 0.05;
  /// A skeleton is kept when it covers at least this fraction of all
  /// observed two-hop patterns.
  double skeleton_support = 0.02;
  uint64_t seed = 97;
};

/// Mines symmetric two-hop multiplex metapath schemas from the graph.
/// Fails when the graph has no edges.
Result<std::vector<MetapathSchema>> MineMetapaths(
    const store::GraphStore& graph, const MinerConfig& config = MinerConfig());

}  // namespace supa

#endif  // SUPA_GRAPH_METAPATH_MINER_H_
