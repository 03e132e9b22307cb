// TGAT (Xu et al., ICLR 2020): inductive representation learning on
// temporal graphs with functional time encoding and temporal attention.
//
// Lite reproduction note: keeps the two signature mechanisms — a fixed
// log-spaced cosine time encoding Φ(Δt) and attention over each node's
// most recent neighbors keyed by content + time — with a single head, one
// layer, and gradients applied to the base embeddings at the attended
// positions. What the paper's comparison exercises (temporal-topological
// aggregation, hence susceptibility to neighborhood disturbance) is
// preserved.

#ifndef SUPA_BASELINES_TGAT_H_
#define SUPA_BASELINES_TGAT_H_

#include <memory>
#include <vector>

#include "eval/recommender.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace supa {

/// TGAT-lite hyper-parameters.
struct TgatConfig {
  int dim = 64;
  /// Time-encoding harmonics appended to each neighbor key.
  int time_dims = 8;
  /// Neighbors attended per node (most recent).
  size_t attend_window = 10;
  double lr = 0.03;
  double init_scale = 0.05;
  int negatives = 2;
  int epochs = 2;
  uint64_t seed = 33;
};

/// TGAT-lite over the (η-capped) training subgraph.
class TgatRecommender : public Recommender {
 public:
  explicit TgatRecommender(TgatConfig config = TgatConfig())
      : config_(config) {}

  std::string name() const override { return "TGAT"; }
  Status Fit(const Dataset& data, EdgeRange range) override;
  double Score(NodeId u, NodeId v, EdgeTypeId r) const override;
  Result<std::vector<float>> Embedding(NodeId v, EdgeTypeId r) const override;

 private:
  /// Temporal-attention representation of `v` at query time `t`.
  void Represent(NodeId v, Timestamp t, float* out) const;

  /// Φ(Δt): cosine harmonics at log-spaced frequencies.
  double TimeKernel(double dt, int harmonic) const;

  TgatConfig config_;
  size_t dim_ = 0;
  std::vector<float> base_;
  std::unique_ptr<store::GraphStore> graph_;
  Timestamp final_time_ = 0.0;
};

}  // namespace supa

#endif  // SUPA_BASELINES_TGAT_H_
