// Random walk samplers over the dynamic graph: metapath-constrained walks
// (the Influenced Graph Sampling Module's primitive, §III-B), plain uniform
// walks (DeepWalk), and p/q-biased second-order walks (node2vec).

#ifndef SUPA_GRAPH_WALKER_H_
#define SUPA_GRAPH_WALKER_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/metapath.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace supa {

/// One hop of a sampled walk: the node reached plus how and when the
/// traversed edge was established.
struct WalkStep {
  NodeId node = kInvalidNode;
  EdgeTypeId via_type = 0;
  Timestamp via_time = 0.0;

  bool operator==(const WalkStep&) const = default;
};

/// A sampled path p: start node followed by up to `walk_len - 1` hops. The
/// walk terminates early when no admissible neighbor exists.
struct Walk {
  NodeId start = kInvalidNode;
  std::vector<WalkStep> steps;

  /// |p| — number of node positions including the start.
  size_t length() const { return steps.size() + 1; }
};

/// A caller-owned flat arena of walks: every step of every walk lives in
/// one contiguous `steps` vector and each walk is a [begin, end) span over
/// it. Reusing one WalkBuffer across training edges makes influenced-graph
/// sampling allocation-free in steady state (per-`Walk` heap vectors were
/// the hot path's dominant allocation source).
class WalkBuffer {
 public:
  struct Span {
    NodeId start = kInvalidNode;
    uint32_t begin = 0;
    uint32_t end = 0;

    size_t size() const { return end - begin; }
  };

  /// Drops all walks; keeps the arena's capacity.
  void Clear() {
    steps_.clear();
    spans_.clear();
    open_ = false;
  }

  size_t num_walks() const { return spans_.size(); }
  size_t num_steps() const { return steps_.size(); }
  /// Current arena capacity in steps; stable capacity across Clear()/fill
  /// cycles means the buffer is being reused allocation-free.
  size_t steps_capacity() const { return steps_.capacity(); }

  const Span& walk(size_t i) const { return spans_[i]; }

  /// First step of `span`; valid while no further steps are appended.
  const WalkStep* steps_of(const Span& span) const {
    return steps_.data() + span.begin;
  }

  // Builder interface (used by Walker / the sampler):

  /// Opens a new walk starting at `start`.
  void BeginWalk(NodeId start) {
    assert(!open_);
    pending_ = Span{start, static_cast<uint32_t>(steps_.size()),
                    static_cast<uint32_t>(steps_.size())};
    open_ = true;
  }

  /// Appends one hop to the open walk.
  void PushStep(const WalkStep& step) {
    assert(open_);
    steps_.push_back(step);
  }

  /// Closes the open walk, keeping it as a span.
  void CommitWalk() {
    assert(open_);
    pending_.end = static_cast<uint32_t>(steps_.size());
    spans_.push_back(pending_);
    open_ = false;
  }

  /// Discards the open walk and any steps it pushed.
  void AbortWalk() {
    assert(open_);
    steps_.resize(pending_.begin);
    open_ = false;
  }

 private:
  std::vector<WalkStep> steps_;
  std::vector<Span> spans_;
  Span pending_;
  bool open_ = false;
};

/// Samples walks over the storage engine's live adjacency, honoring its
/// neighbor cap.
class Walker {
 public:
  explicit Walker(const store::GraphStore& store) : store_(&store) {}

  /// Samples one walk from `start` constrained by `schema` (Eq. 2–3): node
  /// position i must have type o_{P, f(i)} and hop j must use an edge type
  /// in R_{P, f(j)}. Requires schema.IsSymmetric() when walk_len exceeds
  /// the schema length. Appends the walk to `out` as a new span and returns
  /// the number of hops taken; a zero-hop walk (the start node's type does
  /// not match the schema head, or no admissible neighbor) appends nothing.
  size_t SampleMetapathWalkInto(NodeId start, const MetapathSchema& schema,
                                size_t walk_len, Rng& rng,
                                WalkBuffer* out) const;

  /// Uniform random walk (DeepWalk-style); ignores types.
  Walk SampleUniformWalk(NodeId start, size_t walk_len, Rng& rng) const;

  /// node2vec second-order walk with return parameter `p` and in-out
  /// parameter `q`.
  Walk SampleNode2vecWalk(NodeId start, size_t walk_len, double p, double q,
                          Rng& rng) const;

 private:
  /// Uniformly samples an admissible neighbor of `v` (edge type within
  /// `mask`, destination node type `dst_type`). Returns false if none.
  bool SampleAdmissible(NodeId v, EdgeTypeMask mask, NodeTypeId dst_type,
                        Rng& rng, Neighbor* out) const;

  const store::GraphStore* store_;
};

}  // namespace supa

#endif  // SUPA_GRAPH_WALKER_H_
