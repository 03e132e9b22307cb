// NetWalk (Yu et al., KDD 2018): dynamic network embedding via clique
// embedding with a walk reservoir that is updated as the network evolves.
//
// Lite reproduction note: the deep autoencoder is replaced by skip-gram
// (the representation objective both share is walk co-occurrence); the
// signature *walk reservoir* is kept — walks are maintained incrementally
// and only walks touching updated regions are resampled, so
// FitIncremental is cheap and the method is genuinely dynamic.

#ifndef SUPA_BASELINES_NETWALK_H_
#define SUPA_BASELINES_NETWALK_H_

#include <memory>
#include <vector>

#include "baselines/skipgram.h"
#include "eval/recommender.h"
#include "store/graph_store.h"

namespace supa {

/// NetWalk-lite hyper-parameters.
struct NetWalkConfig {
  SkipGramConfig skipgram;
  int walks_per_node = 3;
  int walk_len = 6;
  int epochs_per_update = 1;
  uint64_t seed = 34;
};

/// NetWalk-lite; incremental via the walk reservoir.
class NetWalkRecommender : public Recommender {
 public:
  explicit NetWalkRecommender(NetWalkConfig config = NetWalkConfig())
      : config_(config) {}

  std::string name() const override { return "NetWalk"; }
  bool incremental() const override { return true; }

  Status Fit(const Dataset& data, EdgeRange range) override;
  Status FitIncremental(const Dataset& data, EdgeRange range) override;
  double Score(NodeId u, NodeId v, EdgeTypeId r) const override;
  Result<std::vector<float>> Embedding(NodeId v, EdgeTypeId r) const override;

 private:
  /// Resamples the reservoir walks rooted at `touched` nodes and retrains.
  Status UpdateReservoirAndTrain(const std::vector<NodeId>& touched);

  NetWalkConfig config_;
  std::unique_ptr<store::GraphStore> graph_;
  std::unique_ptr<SkipGramTrainer> trainer_;
  /// Reservoir: walk list per root node (index into walks_).
  std::vector<std::vector<size_t>> root_walks_;
  std::vector<std::vector<NodeId>> walks_;
  Rng rng_{34};
  bool initialized_ = false;
};

}  // namespace supa

#endif  // SUPA_BASELINES_NETWALK_H_
