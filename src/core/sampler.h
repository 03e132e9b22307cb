// The Influenced Graph Sampling Module (§III-B).
//
// For a new edge e = (u, v, r, t) it samples k metapath-constrained walks
// of length l from each interactive node; the union of the sampled paths is
// the influenced graph G_{s,e} consumed by the Time-aware Propagation
// Module.

#ifndef SUPA_CORE_SAMPLER_H_
#define SUPA_CORE_SAMPLER_H_

#include <vector>

#include "graph/walker.h"
#include "obs/metrics.h"

namespace supa {

/// The influenced graph w.r.t. one new edge: the paths sampled from u
/// (\vec{p}_u) and from v (\vec{p}_v). Walks with zero hops are omitted.
struct InfluencedGraph {
  std::vector<Walk> from_u;
  std::vector<Walk> from_v;

  /// Total number of propagation hops across all paths.
  size_t TotalSteps() const {
    size_t n = 0;
    for (const auto& w : from_u) n += w.steps.size();
    for (const auto& w : from_v) n += w.steps.size();
    return n;
  }
};

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

  /// Samples \vec{p}_u and \vec{p}_v for a new edge (u, v, ., .). For each
  /// walk a schema whose head matches the start node's type is chosen
  /// uniformly; nodes with no matching schema yield no paths.
  InfluencedGraph Sample(NodeId u, NodeId v, Rng& rng) const;

  /// Samples just the paths for one start node.
  void SampleFrom(NodeId start, Rng& rng, std::vector<Walk>* out) const;

  /// Arena variant of Sample: clears `out`, writes \vec{p}_u then
  /// \vec{p}_v into it, and sets `*u_count` to the number of u-walks —
  /// spans [0, *u_count) start at u, the rest at v. Draws the same rng
  /// sequence as Sample, so the two are interchangeable bit-for-bit.
  void SampleInto(NodeId u, NodeId v, Rng& rng, WalkBuffer* out,
                  size_t* u_count) const;

  /// Arena variant of SampleFrom: appends spans to `out` (zero-hop walks
  /// omitted, as in SampleFrom).
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
