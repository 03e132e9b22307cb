#include "baselines/gatne.h"

#include "baselines/graph_prop.h"
#include "graph/walker.h"
#include "util/math_utils.h"

namespace supa {

Status GatneRecommender::Fit(const Dataset& data, EdgeRange range) {
  SUPA_ASSIGN_OR_RETURN(std::unique_ptr<store::GraphStore> graph,
                        data.BuildGraphRange(range.begin, range.end));
  graph->set_neighbor_cap(neighbor_cap_);
  const size_t n = graph->num_nodes();
  dim_ = static_cast<size_t>(config_.skipgram.dim);
  num_relations_ = data.schema.num_edge_types();
  Rng rng(config_.seed);

  // ---- base embeddings: skip-gram over uniform walks ----------------------
  Walker walker(*graph);
  std::vector<std::vector<NodeId>> walks;
  for (NodeId v = 0; v < n; ++v) {
    if (graph->Degree(v) == 0) continue;
    for (int w = 0; w < config_.walks_per_node; ++w) {
      Walk walk = walker.SampleUniformWalk(
          v, static_cast<size_t>(config_.walk_len), rng);
      std::vector<NodeId> nodes;
      nodes.push_back(walk.start);
      for (const auto& step : walk.steps) nodes.push_back(step.node);
      if (nodes.size() > 1) walks.push_back(std::move(nodes));
    }
  }
  SUPA_ASSIGN_OR_RETURN(AliasTable neg_table,
                        BuildWalkNegativeTable(walks, n));
  base_ = std::make_unique<SkipGramTrainer>(n, config_.skipgram);
  SUPA_RETURN_NOT_OK(base_->TrainWalks(walks, neg_table));

  // ---- per-edge-type embeddings -------------------------------------------
  edge_emb_.resize(n * num_relations_ * dim_);
  for (auto& x : edge_emb_) {
    x = static_cast<float>(rng.Gaussian(0.0, config_.edge_init_scale));
  }
  const auto edges = CappedEdgeList(data, range, neighbor_cap_);
  std::vector<float> hu(dim_);
  std::vector<float> hv(dim_);
  for (int epoch = 0; epoch < config_.edge_epochs; ++epoch) {
    for (size_t i = range.begin; i < range.end; ++i) {
      const auto& e = data.edges[i];
      auto combined = [&](NodeId x, std::vector<float>& out) {
        const float* b = base_->In(x);
        const float* ee = EdgeEmb(x, e.type);
        for (size_t k = 0; k < dim_; ++k) out[k] = b[k] + ee[k];
      };
      auto update = [&](NodeId a, NodeId b, double label) {
        combined(a, hu);
        combined(b, hv);
        const double s = Dot(hu.data(), hv.data(), dim_);
        const double g = (label - Sigmoid(s)) * config_.edge_lr;
        Axpy(g, hv.data(), EdgeEmb(a, e.type), dim_);
        Axpy(g, hu.data(), EdgeEmb(b, e.type), dim_);
      };
      update(e.src, e.dst, 1.0);
      // One sampled negative per side.
      const NodeId neg1 = static_cast<NodeId>(neg_table.Sample(rng));
      if (neg1 != e.src && neg1 != e.dst) update(e.src, neg1, 0.0);
      const NodeId neg2 = static_cast<NodeId>(neg_table.Sample(rng));
      if (neg2 != e.src && neg2 != e.dst) update(e.dst, neg2, 0.0);
    }
  }
  (void)edges;
  return Status::OK();
}

double GatneRecommender::Score(NodeId u, NodeId v, EdgeTypeId r) const {
  if (base_ == nullptr) return 0.0;
  const float* bu = base_->In(u);
  const float* bv = base_->In(v);
  const float* eu = EdgeEmb(u, r);
  const float* ev = EdgeEmb(v, r);
  double acc = 0.0;
  for (size_t k = 0; k < dim_; ++k) {
    acc += (static_cast<double>(bu[k]) + eu[k]) *
           (static_cast<double>(bv[k]) + ev[k]);
  }
  return acc;
}

Result<std::vector<float>> GatneRecommender::Embedding(NodeId v,
                                                       EdgeTypeId r) const {
  if (base_ == nullptr) {
    return Status::FailedPrecondition("GATNE not fitted yet");
  }
  std::vector<float> out(dim_);
  const float* b = base_->In(v);
  const float* ee = EdgeEmb(v, r);
  for (size_t k = 0; k < dim_; ++k) out[k] = b[k] + ee[k];
  return out;
}

}  // namespace supa
