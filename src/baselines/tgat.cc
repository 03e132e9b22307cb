#include "baselines/tgat.h"

#include <algorithm>
#include <cmath>

#include "util/math_utils.h"

namespace supa {

double TgatRecommender::TimeKernel(double dt, int harmonic) const {
  // Log-spaced frequencies 1, 1/3, 1/9, ... over the harmonics.
  const double omega = std::pow(3.0, -harmonic);
  return std::cos(omega * dt);
}

void TgatRecommender::Represent(NodeId v, Timestamp t, float* out) const {
  const float* self = base_.data() + v * dim_;
  for (size_t k = 0; k < dim_; ++k) out[k] = self[k];
  auto window = graph_->Neighbors(v);
  const size_t take = std::min(window.size(), config_.attend_window);
  if (take == 0) return;

  // Attention logits: content similarity + mean time harmonic response.
  double logits[64];
  double max_logit = -1e300;
  for (size_t i = 0; i < take; ++i) {
    const Neighbor& nb = window[window.size() - take + i];
    const float* other = base_.data() + nb.node * dim_;
    double time_term = 0.0;
    for (int h = 0; h < config_.time_dims; ++h) {
      time_term += TimeKernel(std::max(0.0, t - nb.time), h);
    }
    time_term /= config_.time_dims;
    logits[i] = Dot(self, other, dim_) / std::sqrt(double(dim_)) + time_term;
    max_logit = std::max(max_logit, logits[i]);
  }
  double z = 0.0;
  for (size_t i = 0; i < take; ++i) {
    logits[i] = std::exp(logits[i] - max_logit);
    z += logits[i];
  }
  for (size_t i = 0; i < take; ++i) {
    const Neighbor& nb = window[window.size() - take + i];
    Axpy(logits[i] / z, base_.data() + nb.node * dim_, out, dim_);
  }
}

Status TgatRecommender::Fit(const Dataset& data, EdgeRange range) {
  if (config_.attend_window > 64) {
    return Status::InvalidArgument("attend_window must be <= 64");
  }
  const size_t n = data.num_nodes();
  dim_ = static_cast<size_t>(config_.dim);
  Rng rng(config_.seed);
  base_.resize(n * dim_);
  for (auto& x : base_) {
    x = static_cast<float>(rng.Gaussian(0.0, config_.init_scale));
  }
  graph_ = std::make_unique<store::GraphStore>(
      data.schema.num_edge_types(), data.node_types);
  graph_->set_neighbor_cap(neighbor_cap_);

  std::vector<float> hu(dim_);
  std::vector<float> hv(dim_);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t i = range.begin; i < range.end; ++i) {
      const auto& e = data.edges[i];
      if (epoch == 0) {
        SUPA_RETURN_NOT_OK(graph_->AddEdge(e.src, e.dst, e.type, e.time));
      }
      Represent(e.src, e.time, hu.data());
      Represent(e.dst, e.time, hv.data());
      auto step = [&](const float* a, const float* b, NodeId na, NodeId nb2,
                      double label) {
        const double s = Dot(a, b, dim_);
        const double g = (label - Sigmoid(s)) * config_.lr;
        // Lite: route the gradient to the base rows of both endpoints.
        Axpy(g, b, base_.data() + na * dim_, dim_);
        Axpy(g, a, base_.data() + nb2 * dim_, dim_);
      };
      step(hu.data(), hv.data(), e.src, e.dst, 1.0);
      for (int j = 0; j < config_.negatives; ++j) {
        const NodeId neg = static_cast<NodeId>(rng.Index(n));
        if (neg == e.src || neg == e.dst) continue;
        step(hu.data(), base_.data() + neg * dim_, e.src, neg, 0.0);
      }
    }
  }
  final_time_ = graph_->latest_time();
  return Status::OK();
}

double TgatRecommender::Score(NodeId u, NodeId v, EdgeTypeId) const {
  if (base_.empty()) return 0.0;
  std::vector<float> hu(dim_);
  std::vector<float> hv(dim_);
  Represent(u, final_time_, hu.data());
  Represent(v, final_time_, hv.data());
  return Dot(hu.data(), hv.data(), dim_);
}

Result<std::vector<float>> TgatRecommender::Embedding(NodeId v,
                                                      EdgeTypeId) const {
  if (base_.empty()) {
    return Status::FailedPrecondition("TGAT not fitted yet");
  }
  std::vector<float> out(dim_);
  Represent(v, final_time_, out.data());
  return out;
}

}  // namespace supa
