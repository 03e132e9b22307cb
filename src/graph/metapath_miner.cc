#include "graph/metapath_miner.h"

#include <algorithm>
#include <map>

#include "graph/walker.h"

namespace supa {

Result<std::vector<MetapathSchema>> MineMetapaths(
    const store::GraphStore& graph, const MinerConfig& config) {
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("cannot mine an empty graph");
  }
  Rng rng(config.seed);
  Walker walker(graph);

  // Skeleton = (t0, t1, t2) node types of a two-hop walk; per skeleton we
  // count total observations and per-hop edge-type frequencies.
  struct SkeletonStats {
    size_t count = 0;
    std::map<EdgeTypeId, size_t> hop1;
    std::map<EdgeTypeId, size_t> hop2;
  };
  std::map<std::array<NodeTypeId, 3>, SkeletonStats> skeletons;
  size_t total = 0;

  // Sample walk starts proportional to activity: random edges' endpoints.
  std::vector<NodeId> active;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.Degree(v) > 0) active.push_back(v);
  }
  if (active.empty()) {
    return Status::FailedPrecondition("no active nodes to mine from");
  }

  for (size_t w = 0; w < config.num_walks; ++w) {
    const NodeId start = active[rng.Index(active.size())];
    Walk walk = walker.SampleUniformWalk(start, 3, rng);
    if (walk.steps.size() < 2) continue;
    const std::array<NodeTypeId, 3> skeleton = {
        graph.NodeType(walk.start), graph.NodeType(walk.steps[0].node),
        graph.NodeType(walk.steps[1].node)};
    auto& stats = skeletons[skeleton];
    ++stats.count;
    ++stats.hop1[walk.steps[0].via_type];
    ++stats.hop2[walk.steps[1].via_type];
    ++total;
  }
  if (total == 0) {
    return Status::FailedPrecondition(
        "graph too sparse: no two-hop walks observed");
  }

  // Keep symmetric, well-supported skeletons, most frequent first.
  std::vector<std::pair<size_t, std::array<NodeTypeId, 3>>> ranked;
  for (const auto& [skeleton, stats] : skeletons) {
    if (skeleton[0] != skeleton[2]) continue;  // symmetric only
    if (static_cast<double>(stats.count) <
        config.skeleton_support * static_cast<double>(total)) {
      continue;
    }
    ranked.emplace_back(stats.count, skeleton);
  }
  std::sort(ranked.rbegin(), ranked.rend());

  std::vector<MetapathSchema> out;
  for (const auto& [count, skeleton] : ranked) {
    if (out.size() >= config.max_schemas) break;
    const SkeletonStats& stats = skeletons[skeleton];
    auto hop_mask = [&](const std::map<EdgeTypeId, size_t>& freq) {
      EdgeTypeMask mask = 0;
      for (const auto& [etype, c] : freq) {
        if (static_cast<double>(c) >=
            config.edge_support * static_cast<double>(stats.count)) {
          mask |= EdgeTypeBit(etype);
        }
      }
      return mask;
    };
    const EdgeTypeMask m1 = hop_mask(stats.hop1);
    const EdgeTypeMask m2 = hop_mask(stats.hop2);
    if (m1 == 0 || m2 == 0) continue;
    out.push_back(MetapathSchema(
        skeleton[0], {MetapathStep{m1, skeleton[1]},
                      MetapathStep{m2, skeleton[2]}}));
  }
  if (out.empty()) {
    return Status::NotFound("no symmetric metapath schema met support");
  }
  return out;
}

}  // namespace supa
