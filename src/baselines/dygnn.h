// DyGNN (Ma et al., SIGIR 2020): streaming graph neural network.
//
// Lite reproduction note: the LSTM-style update/propagate cells are
// reduced to their mechanism — for every arriving edge the two endpoint
// states are (a) time-decayed, (b) updated by *aggregating the current
// neighbor states* (the neighbor-aggregation step that makes this family
// sensitive to neighborhood disturbance), and (c) refined with a logistic
// link loss with negative sampling. The contrast with SUPA's propagate-
// don't-aggregate architecture is exactly what Fig. 6 measures.

#ifndef SUPA_BASELINES_DYGNN_H_
#define SUPA_BASELINES_DYGNN_H_

#include <memory>
#include <vector>

#include "eval/recommender.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace supa {

/// DyGNN-lite hyper-parameters.
struct DyGnnConfig {
  int dim = 64;
  double lr = 0.05;
  /// Weight of the aggregated neighborhood in each update.
  double aggregate_weight = 0.3;
  /// Time-decay scale for the endpoint states.
  double decay_scale = 1.0;
  int negatives = 2;
  double init_scale = 0.05;
  /// Neighbors aggregated per update (most recent ones).
  size_t aggregate_window = 10;
  uint64_t seed = 30;
};

/// DyGNN-lite; incremental streaming model.
class DyGnnRecommender : public Recommender {
 public:
  explicit DyGnnRecommender(DyGnnConfig config = DyGnnConfig())
      : config_(config) {}

  std::string name() const override { return "DyGNN"; }
  bool incremental() const override { return true; }

  Status Fit(const Dataset& data, EdgeRange range) override;
  Status FitIncremental(const Dataset& data, EdgeRange range) override;
  double Score(NodeId u, NodeId v, EdgeTypeId r) const override;
  Result<std::vector<float>> Embedding(NodeId v, EdgeTypeId r) const override;

 private:
  Status Stream(const Dataset& data, EdgeRange range);
  void UpdateEndpoint(NodeId node, NodeId partner, Timestamp t);

  DyGnnConfig config_;
  size_t dim_ = 0;
  std::vector<float> state_;
  std::unique_ptr<store::GraphStore> graph_;
  Rng rng_{30};
  bool initialized_ = false;
};

}  // namespace supa

#endif  // SUPA_BASELINES_DYGNN_H_
