#include "baselines/netwalk.h"

#include <unordered_set>

#include "graph/walker.h"

namespace supa {

Status NetWalkRecommender::Fit(const Dataset& data, EdgeRange range) {
  rng_ = Rng(config_.seed);
  graph_ = std::make_unique<store::GraphStore>(
      data.schema.num_edge_types(), data.node_types);
  graph_->set_neighbor_cap(neighbor_cap_);
  trainer_ = std::make_unique<SkipGramTrainer>(data.num_nodes(),
                                               config_.skipgram);
  walks_.clear();
  root_walks_.assign(data.num_nodes(), {});
  initialized_ = true;
  return FitIncremental(data, range);
}

Status NetWalkRecommender::FitIncremental(const Dataset& data,
                                          EdgeRange range) {
  if (!initialized_) return Fit(data, range);
  std::unordered_set<NodeId> touched_set;
  for (size_t i = range.begin; i < range.end; ++i) {
    const auto& e = data.edges[i];
    SUPA_RETURN_NOT_OK(graph_->AddEdge(e.src, e.dst, e.type, e.time));
    touched_set.insert(e.src);
    touched_set.insert(e.dst);
  }
  std::vector<NodeId> touched(touched_set.begin(), touched_set.end());
  return UpdateReservoirAndTrain(touched);
}

Status NetWalkRecommender::UpdateReservoirAndTrain(
    const std::vector<NodeId>& touched) {
  Walker walker(*graph_);
  // Resample only the reservoir entries rooted at touched nodes.
  for (NodeId root : touched) {
    auto& slots = root_walks_[root];
    if (slots.empty()) {
      for (int w = 0; w < config_.walks_per_node; ++w) {
        slots.push_back(walks_.size());
        walks_.emplace_back();
      }
    }
    for (size_t slot : slots) {
      Walk walk = walker.SampleUniformWalk(
          root, static_cast<size_t>(config_.walk_len), rng_);
      auto& nodes = walks_[slot];
      nodes.clear();
      nodes.push_back(walk.start);
      for (const auto& step : walk.steps) nodes.push_back(step.node);
    }
  }
  // Retrain on the full reservoir (warm-started embeddings).
  SUPA_ASSIGN_OR_RETURN(AliasTable neg_table,
                        BuildWalkNegativeTable(walks_, graph_->num_nodes()));
  for (int e = 0; e < config_.epochs_per_update; ++e) {
    SUPA_RETURN_NOT_OK(trainer_->TrainWalks(walks_, neg_table));
  }
  return Status::OK();
}

double NetWalkRecommender::Score(NodeId u, NodeId v, EdgeTypeId) const {
  if (trainer_ == nullptr) return 0.0;
  return trainer_->Score(u, v);
}

Result<std::vector<float>> NetWalkRecommender::Embedding(NodeId v,
                                                         EdgeTypeId) const {
  if (trainer_ == nullptr) {
    return Status::FailedPrecondition("NetWalk not fitted yet");
  }
  const float* row = trainer_->In(v);
  return std::vector<float>(row, row + trainer_->dim());
}

}  // namespace supa
