#include "baselines/dyhne.h"

#include "graph/walker.h"

namespace supa {

Status DyhneRecommender::Fit(const Dataset& data, EdgeRange range) {
  SUPA_ASSIGN_OR_RETURN(std::unique_ptr<store::GraphStore> graph,
                        data.BuildGraphRange(range.begin, range.end));
  graph->set_neighbor_cap(neighbor_cap_);
  Walker walker(*graph);
  Rng rng(config_.seed);

  // Metapath-constrained walks carry the heterogeneity-aware proximity.
  std::vector<std::vector<NodeId>> walks;
  WalkBuffer buffer;
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    if (graph->Degree(v) == 0) continue;
    for (int w = 0; w < config_.walks_per_node; ++w) {
      const auto& metapaths = data.metapaths;
      // Pick a schema whose head matches v's type; skip if none.
      std::vector<size_t> heads;
      for (size_t m = 0; m < metapaths.size(); ++m) {
        if (metapaths[m].head() == graph->NodeType(v)) heads.push_back(m);
      }
      if (heads.empty()) continue;
      const auto& mp = metapaths[heads[rng.Index(heads.size())]];
      buffer.Clear();
      const size_t hops = walker.SampleMetapathWalkInto(
          v, mp, static_cast<size_t>(config_.walk_len), rng, &buffer);
      if (hops == 0) continue;
      const WalkBuffer::Span& span = buffer.walk(0);
      const WalkStep* steps = buffer.steps_of(span);
      std::vector<NodeId> nodes{span.start};
      for (size_t s = 0; s < span.size(); ++s) nodes.push_back(steps[s].node);
      walks.push_back(std::move(nodes));
    }
  }
  if (walks.empty()) {
    return Status::FailedPrecondition("DyHNE sampled no metapath walks");
  }

  SUPA_ASSIGN_OR_RETURN(AliasTable neg_table,
                        BuildWalkNegativeTable(walks, graph->num_nodes()));
  trainer_ = std::make_unique<SkipGramTrainer>(graph->num_nodes(),
                                               config_.skipgram);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    SUPA_RETURN_NOT_OK(trainer_->TrainWalks(walks, neg_table));
  }
  return Status::OK();
}

double DyhneRecommender::Score(NodeId u, NodeId v, EdgeTypeId) const {
  if (trainer_ == nullptr) return 0.0;
  return trainer_->Score(u, v);
}

Result<std::vector<float>> DyhneRecommender::Embedding(NodeId v,
                                                       EdgeTypeId) const {
  if (trainer_ == nullptr) {
    return Status::FailedPrecondition("DyHNE not fitted yet");
  }
  const float* row = trainer_->In(v);
  return std::vector<float>(row, row + trainer_->dim());
}

}  // namespace supa
