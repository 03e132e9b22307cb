// The Influenced Graph Sampling Module (§III-B).
//
// For a new edge e = (u, v, r, t) it samples k metapath-constrained walks
// of length l from each interactive node; the union of the sampled paths is
// the influenced graph G_{s,e} consumed by the Time-aware Propagation
// Module. The paths are written into a caller-owned WalkBuffer, so
// sampling is allocation-free once the buffer has grown.

#ifndef SUPA_CORE_SAMPLER_H_
#define SUPA_CORE_SAMPLER_H_

#include <vector>

#include "graph/walker.h"
#include "obs/metrics.h"

namespace supa {

/// Samples influenced graphs against a fixed metapath schema set. Reads
/// go through the storage engine (node types + capped neighborhoods);
/// `num_node_types` bounds the head-type dispatch table, which the store
/// does not track (it belongs to the Schema layer above).
class InfluencedGraphSampler {
 public:
  /// `metapaths` must already be symmetric (Dataset stores them so).
  InfluencedGraphSampler(const store::GraphStore& store,
                         size_t num_node_types,
                         std::vector<MetapathSchema> metapaths,
                         int num_walks, int walk_len);

  /// Samples the influenced graph of a new edge (u, v, ., .): clears
  /// `out`, writes \vec{p}_u then \vec{p}_v into it, and sets `*u_count`
  /// to the number of u-walks — spans [0, *u_count) start at u, the rest
  /// at v. For each walk a schema whose head matches the start node's type
  /// is chosen uniformly; nodes with no matching schema yield no paths, and
  /// walks with zero hops are omitted.
  void SampleInto(NodeId u, NodeId v, Rng& rng, WalkBuffer* out,
                  size_t* u_count) const;

  /// Appends just the paths for one start node to `out`.
  void SampleFromInto(NodeId start, Rng& rng, WalkBuffer* out) const;

  const std::vector<MetapathSchema>& metapaths() const { return metapaths_; }

 private:
  Walker walker_;
  const store::GraphStore* store_;
  std::vector<MetapathSchema> metapaths_;
  /// metapath indices grouped by head node type.
  std::vector<std::vector<size_t>> by_head_type_;
  int num_walks_;
  int walk_len_;

  // Handles resolved once at construction (see obs/metrics.h); the hot
  // path only does relaxed adds on thread-local cells.
  obs::Counter walks_counter_;
  obs::Counter steps_counter_;
  obs::Counter arena_reuse_counter_;
  obs::Counter arena_grow_counter_;
  obs::Histogram walk_len_hist_;
};

}  // namespace supa

#endif  // SUPA_CORE_SAMPLER_H_
