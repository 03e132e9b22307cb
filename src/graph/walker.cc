#include "graph/walker.h"

#include <algorithm>

namespace supa {

bool Walker::SampleAdmissible(NodeId v, EdgeTypeMask mask,
                              NodeTypeId dst_type, Rng& rng,
                              Neighbor* out) const {
  // Reservoir sampling over the capped window keeps this one pass and
  // allocation-free.
  auto window = store_->Neighbors(v);
  size_t seen = 0;
  for (const Neighbor& nb : window) {
    if (!MaskContains(mask, nb.edge_type)) continue;
    if (store_->NodeType(nb.node) != dst_type) continue;
    ++seen;
    if (rng.Index(seen) == 0) *out = nb;
  }
  return seen > 0;
}

size_t Walker::SampleMetapathWalkInto(NodeId start,
                                      const MetapathSchema& schema,
                                      size_t walk_len, Rng& rng,
                                      WalkBuffer* out) const {
  if (walk_len <= 1 || store_->NodeType(start) != schema.head()) return 0;
  out->BeginWalk(start);
  size_t hops = 0;
  NodeId cur = start;
  for (; hops + 1 < walk_len; ++hops) {
    const MetapathStep& constraint = schema.StepAt(hops);
    Neighbor nb;
    if (!SampleAdmissible(cur, constraint.edge_types, constraint.dst_type,
                          rng, &nb)) {
      break;
    }
    out->PushStep(WalkStep{nb.node, nb.edge_type, nb.time});
    cur = nb.node;
  }
  if (hops == 0) {
    out->AbortWalk();
  } else {
    out->CommitWalk();
  }
  return hops;
}

Walk Walker::SampleUniformWalk(NodeId start, size_t walk_len,
                               Rng& rng) const {
  Walk walk;
  walk.start = start;
  walk.steps.reserve(walk_len > 0 ? walk_len - 1 : 0);
  NodeId cur = start;
  for (size_t hop = 0; hop + 1 < walk_len; ++hop) {
    auto window = store_->Neighbors(cur);
    if (window.empty()) break;
    const Neighbor& nb = window[rng.Index(window.size())];
    walk.steps.push_back(WalkStep{nb.node, nb.edge_type, nb.time});
    cur = nb.node;
  }
  return walk;
}

Walk Walker::SampleNode2vecWalk(NodeId start, size_t walk_len, double p,
                                double q, Rng& rng) const {
  Walk walk;
  walk.start = start;
  if (walk_len <= 1) return walk;
  walk.steps.reserve(walk_len - 1);

  NodeId prev = kInvalidNode;
  NodeId cur = start;
  std::vector<double> weights;
  for (size_t hop = 0; hop + 1 < walk_len; ++hop) {
    auto window = store_->Neighbors(cur);
    if (window.empty()) break;
    Neighbor chosen;
    if (prev == kInvalidNode) {
      chosen = window[rng.Index(window.size())];
    } else {
      // Second-order bias: 1/p to return, 1 for common neighbors of prev,
      // 1/q otherwise. Membership test is a linear scan of prev's window,
      // which is bounded by the neighbor cap in capped settings.
      auto prev_window = store_->Neighbors(prev);
      weights.clear();
      weights.reserve(window.size());
      for (const Neighbor& nb : window) {
        double w;
        if (nb.node == prev) {
          w = 1.0 / p;
        } else {
          bool shared = std::any_of(
              prev_window.begin(), prev_window.end(),
              [&](const Neighbor& pn) { return pn.node == nb.node; });
          w = shared ? 1.0 : 1.0 / q;
        }
        weights.push_back(w);
      }
      chosen = window[rng.Weighted(weights)];
    }
    walk.steps.push_back(WalkStep{chosen.node, chosen.edge_type, chosen.time});
    prev = cur;
    cur = chosen.node;
  }
  return walk;
}

}  // namespace supa
