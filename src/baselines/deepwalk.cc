#include "baselines/deepwalk.h"

#include "graph/walker.h"

namespace supa {

Status DeepWalkRecommender::Fit(const Dataset& data, EdgeRange range) {
  SUPA_ASSIGN_OR_RETURN(std::unique_ptr<store::GraphStore> graph,
                        data.BuildGraphRange(range.begin, range.end));
  graph->set_neighbor_cap(neighbor_cap_);
  Walker walker(*graph);
  Rng rng(config_.seed);

  std::vector<std::vector<NodeId>> walks;
  walks.reserve(graph->num_nodes() * config_.walks_per_node);
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    if (graph->Degree(v) == 0) continue;
    for (int w = 0; w < config_.walks_per_node; ++w) {
      Walk walk = walker.SampleUniformWalk(
          v, static_cast<size_t>(config_.walk_len), rng);
      std::vector<NodeId> nodes;
      nodes.reserve(walk.length());
      nodes.push_back(walk.start);
      for (const auto& step : walk.steps) nodes.push_back(step.node);
      if (nodes.size() > 1) walks.push_back(std::move(nodes));
    }
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

double DeepWalkRecommender::Score(NodeId u, NodeId v, EdgeTypeId) const {
  if (trainer_ == nullptr) return 0.0;
  return trainer_->Score(u, v);
}

Result<std::vector<float>> DeepWalkRecommender::Embedding(NodeId v,
                                                          EdgeTypeId) const {
  if (trainer_ == nullptr) {
    return Status::FailedPrecondition("DeepWalk not fitted yet");
  }
  const float* row = trainer_->In(v);
  return std::vector<float>(row, row + trainer_->dim());
}

}  // namespace supa
