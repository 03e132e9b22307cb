#include "baselines/dygnn.h"

#include <algorithm>

#include "util/math_utils.h"

namespace supa {

Status DyGnnRecommender::Fit(const Dataset& data, EdgeRange range) {
  const size_t n = data.num_nodes();
  dim_ = static_cast<size_t>(config_.dim);
  rng_ = Rng(config_.seed);
  state_.resize(n * dim_);
  for (auto& x : state_) {
    x = static_cast<float>(rng_.Gaussian(0.0, config_.init_scale));
  }
  graph_ = std::make_unique<store::GraphStore>(
      data.schema.num_edge_types(), data.node_types);
  graph_->set_neighbor_cap(neighbor_cap_);
  initialized_ = true;
  return Stream(data, range);
}

Status DyGnnRecommender::FitIncremental(const Dataset& data,
                                        EdgeRange range) {
  if (!initialized_) return Fit(data, range);
  return Stream(data, range);
}

void DyGnnRecommender::UpdateEndpoint(NodeId node, NodeId partner,
                                      Timestamp t) {
  float* h = state_.data() + node * dim_;

  // (a) time decay of the stale state.
  const Timestamp last = graph_->LastActive(node);
  if (last != kNeverActive && t > last) {
    const double decay = DecayG(config_.decay_scale * (t - last));
    Scale(decay, h, dim_);
  }

  // (b) neighbor aggregation over the currently visible window — the step
  // that inherits neighborhood disturbance.
  auto window = graph_->Neighbors(node);
  const size_t take = std::min(window.size(), config_.aggregate_window);
  if (take > 0) {
    const double w = config_.aggregate_weight / static_cast<double>(take);
    for (size_t i = window.size() - take; i < window.size(); ++i) {
      Axpy(w, state_.data() + window[i].node * dim_, h, dim_);
    }
  }
  // Always mix in the interacting partner.
  Axpy(config_.aggregate_weight, state_.data() + partner * dim_, h, dim_);

  // Keep the recurrent state bounded (the role of the cell nonlinearity in
  // the original LSTM-style units).
  const double norm = Norm2(h, dim_);
  if (norm > 1.0) Scale(1.0 / norm, h, dim_);
}

Status DyGnnRecommender::Stream(const Dataset& data, EdgeRange range) {
  const size_t n = data.num_nodes();
  for (size_t i = range.begin; i < range.end; ++i) {
    const auto& e = data.edges[i];
    UpdateEndpoint(e.src, e.dst, e.time);
    UpdateEndpoint(e.dst, e.src, e.time);

    // (c) link loss with negatives.
    float* hu = state_.data() + e.src * dim_;
    float* hv = state_.data() + e.dst * dim_;
    auto logistic_step = [&](float* a, float* b, double label) {
      const double s = Dot(a, b, dim_);
      const double g = (label - Sigmoid(s)) * config_.lr;
      for (size_t k = 0; k < dim_; ++k) {
        const float ak = a[k];
        a[k] += static_cast<float>(g * b[k]);
        b[k] += static_cast<float>(g * ak);
      }
    };
    logistic_step(hu, hv, 1.0);
    for (int j = 0; j < config_.negatives; ++j) {
      const NodeId neg = static_cast<NodeId>(rng_.Index(n));
      if (neg == e.src || neg == e.dst) continue;
      logistic_step(hu, state_.data() + neg * dim_, 0.0);
    }

    SUPA_RETURN_NOT_OK(graph_->AddEdge(e.src, e.dst, e.type, e.time));
  }
  return Status::OK();
}

double DyGnnRecommender::Score(NodeId u, NodeId v, EdgeTypeId) const {
  if (state_.empty()) return 0.0;
  return Dot(state_.data() + u * dim_, state_.data() + v * dim_, dim_);
}

Result<std::vector<float>> DyGnnRecommender::Embedding(NodeId v,
                                                       EdgeTypeId) const {
  if (state_.empty()) {
    return Status::FailedPrecondition("DyGNN not fitted yet");
  }
  return std::vector<float>(state_.begin() + v * dim_,
                            state_.begin() + (v + 1) * dim_);
}

}  // namespace supa
